package cloud

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// SubmitDigest reconciles one neighborhood's compacted round history into
// the control-plane fold. Each digest round carries the full census set the
// neighborhood folded locally; rounds the cloud already completed go
// through the fixed-lag late path (byte-identical duplicates — the normal
// case, since every neighborhood folds the same members' censuses its
// digest reports — are absorbed; genuinely late censuses rewind and merge),
// while new rounds accumulate on the round barrier until every neighborhood
// (d.Of of them, a count the first accepted digest fixes) has reported, then fold in round order. SubmitDigest never
// blocks on a barrier: the reply is the cloud's *current* view of the
// members' ratios, which gossip nodes record for observability only — the
// digest stream is the data plane's history, not a policy round-trip.
//
// Rounds inside one digest must be ascending; neighborhoods escalate their
// backlog in order, so cross-neighborhood completion is ascending too.
func (s *Server) SubmitDigest(d transport.Digest) (transport.RatioBatch, error) {
	if d.Of <= 0 {
		return transport.RatioBatch{}, fmt.Errorf("cloud: digest from neighborhood %d of %d", d.Neighborhood, d.Of)
	}
	if d.Neighborhood < 0 || d.Neighborhood >= d.Of {
		return transport.RatioBatch{}, fmt.Errorf("cloud: digest from neighborhood %d outside 0..%d", d.Neighborhood, d.Of-1)
	}
	if len(d.Rounds) == 0 {
		return transport.RatioBatch{}, fmt.Errorf("cloud: empty digest from neighborhood %d", d.Neighborhood)
	}
	last := -1
	for _, dr := range d.Rounds {
		if dr.Round <= last {
			return transport.RatioBatch{}, fmt.Errorf("cloud: digest rounds out of order (%d after %d)", dr.Round, last)
		}
		last = dr.Round
		if err := s.eng.Validate(dr.Censuses); err != nil {
			return transport.RatioBatch{}, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The first digest fixes how many neighborhoods a round waits for; one
	// that disagrees would complete rounds without some of them.
	if s.digestOf == 0 {
		s.digestOf = d.Of
	} else if d.Of != s.digestOf {
		return transport.RatioBatch{}, fmt.Errorf("cloud: digest from neighborhood %d counts %d neighborhoods, the cloud folds %d", d.Neighborhood, d.Of, s.digestOf)
	}
	s.metrics.digests.Inc()
	for _, dr := range d.Rounds {
		s.metrics.digestRounds.Inc()
		if dr.Round < s.digestMark[d.Neighborhood] {
			// This neighborhood already escalated the round — the same
			// leader retrying a lost ack, or a failed-over successor
			// draining the backlog its journal reconstructed. Idempotent
			// adoption: skip without disturbing the rewind window, so the
			// re-sent copy folds bit-identically to having never arrived.
			s.metrics.digestSkipped.Inc()
			continue
		}
		// Digest barriers carry no deadline: a round completes when every
		// neighborhood has reported it, however long a partition lasts.
		b, late, err := s.eng.Place(dr.Round, dr.Censuses, false)
		if late {
			// Re-escalation after a lost ack, or another neighborhood's copy
			// of a round this one already completed: the rewind window
			// absorbs duplicates and merges genuinely late censuses.
			s.lateLocked(dr.Round, dr.Censuses)
			continue
		}
		if err != nil {
			return transport.RatioBatch{}, err
		}
		if len(b.digested) != d.Of {
			b.digested = make([]bool, d.Of)
		}
		b.digested[d.Neighborhood] = true
		if !slices.Contains(b.digested, false) {
			s.completeRoundLocked(dr.Round, b, b.Size() < s.m)
		}
	}
	// Advance the neighborhood's watermark past everything this digest
	// carried: the rounds are either folded, pending on the digest barrier,
	// or absorbed by the rewind window, and the ack below tells the leader
	// to drop them — any future copy must be treated as a duplicate. The
	// reply Round stays last+1 even when every round was skipped, since the
	// escalation exchange identifies its answer by that number.
	if last+1 > s.digestMark[d.Neighborhood] {
		s.digestMark[d.Neighborhood] = last + 1
	}
	reply := transport.RatioBatch{
		Round: last + 1,
		Edges: append([]int(nil), d.Members...),
		X:     make([]float64, len(d.Members)),
	}
	for i, e := range d.Members {
		if e >= 0 && e < s.m {
			reply.X[i] = s.fold.X(e)
		}
	}
	return reply, nil
}
