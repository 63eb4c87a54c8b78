package edge

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// BatchLink maintains a census-batch connection to a consensus coordinator
// (a shard forwarding its region group to the aggregation tier, or a load
// generator multiplexing many regions over one conn). It is CloudLink's
// batched sibling: Report dials lazily with backoff, submits one
// CensusBatch frame for the round, and — when the link drops or the reply
// times out — redials and re-submits the same batch. The receiving tier
// treats a re-submitted batch as last-write-wins duplicates, so retries are
// harmless, and a batch for an already-completed round is answered
// immediately with the regions' current ratios.
type BatchLink struct {
	// Shard identifies the submitting coordinator in batch frames
	// (informational; routing is by each census's Edge id).
	Shard int
	// Dialer establishes coordinator connections with backoff (required).
	Dialer *transport.Dialer
	// ReplyTimeout bounds the wait for the RatioBatch reply before the link
	// is declared dead and the batch re-submitted (0 = wait forever).
	ReplyTimeout time.Duration
	// Attempts is the number of submit attempts per Report (default 3).
	Attempts int
	// Obs, when non-nil, is the observer the link reports through. Set it
	// before the first Report; nil falls back to a private registry.
	Obs *obs.Observer
	// OnCorrection, when non-nil, is invoked (outside the link's lock) for
	// each ratio correction the coordinator pushes after a fixed-lag rewind.
	// Unlike CloudLink the batched link spans many regions, so the whole
	// frame — round, sequence, and the corrected ratio of every region the
	// coordinator knows this link reports for — is handed through: a shard
	// coordinator regroups it by downstream session under the same
	// aggregator-assigned sequence, which the edges' monotonic adoption
	// depends on. One frame is one rewind, so a stale or redelivered one is
	// dropped whole by the link's sequence check before the callback fires.
	OnCorrection func(rc transport.RatioCorrection)

	batch transport.CensusBatch // the body of the exchange in progress
	link
}

func (l *BatchLink) bound() *link {
	return l.bind(&l.Obs, "edge_batch_reports_total", "census batches submitted upstream (including re-submissions)")
}

// handleOther absorbs non-reply frames that interleave with a batch
// exchange: ratio corrections, whatever regions they carry, are adopted
// monotonically by sequence, anything else fails the exchange.
func (l *BatchLink) handleOther(m transport.Message) error {
	rc, _, fresh, err := l.adoptCorrection(m, -1)
	if fresh && l.OnCorrection != nil {
		l.OnCorrection(rc)
	}
	return err
}

// Report submits one round's census batch and returns the coordinator's
// RatioBatch answer (reply.Round = round+1), reconnecting and re-submitting
// across connection failures. Exchanges are serialized: a shard coordinator
// forwards concurrent rounds and late stragglers over one link.
func (l *BatchLink) Report(round int, censuses []transport.Census) (reply transport.RatioBatch, err error) {
	err = l.bound().exchange(l.Dialer, l.Attempts, func(conn transport.Conn) (err error) {
		l.batch = transport.CensusBatch{Shard: l.Shard, Round: round, Censuses: censuses}
		reply, err = session.ReportCensusBatch(conn, &l.batch, l.ReplyTimeout, l.handleOther)
		return err
	})
	if err != nil {
		return transport.RatioBatch{}, fmt.Errorf("shard %d: reporting round %d: %w", l.Shard, round, err)
	}
	return reply, nil
}
