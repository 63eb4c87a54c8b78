package cloud

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/session"
)

// ServeSession runs the edge-facing protocol on sess until the connection
// closes: KindCensus and KindCensusBatch go to the owner's ingest — which
// blocks until the censuses' round resolves — and are answered with the
// members' ratios in the frames of step ②, KindLease renews the member's
// lease, and KindDigest goes to digest, the owner's reconciliation of a
// neighborhood's round digest (the cloud's; nil for an owner that takes
// none). A malformed or unexpected frame is counted and dropped without
// killing the connection — the edge's next census must still be servable. A
// refused request is acked back with its error; a round abandoned under the
// submitter is answered with the members' current ratios so the edge catches
// up instead of hanging; a closed owner drops the connection. The session
// each member reports on is remembered as the channel pushed frames (ratio
// corrections) go back out on.
func (e *Engine) ServeSession(sess *session.Session, ingest func(round int, censuses []transport.Census) error, digest func(transport.Digest) (transport.RatioBatch, error)) {
	defer sess.Close()
	r := &reporter{Session: sess, e: e, ingest: ingest, digest: digest}
	defer e.dropSessions(r)
	_ = sess.Serve(r.handle)
}

// reporter is one connection members report on: its session, the owner's
// ingest and digest reconciliation, the census and answers it reuses, and
// its share of the correction fan-out in progress (PushCorrections).
type reporter struct {
	*session.Session
	e      *Engine
	ingest func(round int, censuses []transport.Census) error
	digest func(transport.Digest) (transport.RatioBatch, error)

	// The session's census and its answers, reused: ingest keeps no census
	// it is handed, and Send has encoded a reply by the time it returns.
	one   [1]transport.Census
	ratio transport.Ratio
	reply transport.RatioBatch

	regions int                        // how many regions the fan-out sends it
	rc      *transport.RatioCorrection // the frame carrying them
}

// handle serves one inbound frame on the session's read loop.
func (r *reporter) handle(m transport.Message) error {
	switch m.Kind {
	case transport.KindCensus:
		c := &r.one[0]
		if err := transport.Decode(m, transport.KindCensus, c); err != nil {
			return r.drop(err)
		}
		if answer, err := r.submit(c.Round, r.one[:]); !answer {
			return err
		}
		r.ratio = transport.Ratio{Round: c.Round + 1, X: r.e.Ratio(c.Edge)}
		return r.Send(transport.KindRatio, &r.ratio)
	case transport.KindCensusBatch:
		var batch transport.CensusBatch
		if err := transport.Decode(m, transport.KindCensusBatch, &batch); err != nil {
			return r.drop(err)
		}
		if answer, err := r.submit(batch.Round, batch.Censuses); !answer {
			return err
		}
		r.e.RatioBatch(&r.reply, batch.Round, batch.Censuses)
		return r.Send(transport.KindRatioBatch, &r.reply)
	case transport.KindLease:
		var lease transport.Lease
		if err := transport.Decode(m, transport.KindLease, &lease); err != nil {
			return r.drop(err)
		}
		return r.ack(r.e.Renew(lease.Edge, time.Duration(lease.TTLMillis)*time.Millisecond))
	case transport.KindDigest:
		if r.digest == nil {
			break
		}
		var d transport.Digest
		if err := transport.Decode(m, transport.KindDigest, &d); err != nil {
			return r.drop(err)
		}
		reply, err := r.digest(d)
		if err != nil {
			// Bad digest (malformed census, skew bound): reject it, keep the
			// conn for the leader's next attempt.
			return r.ack(err)
		}
		return r.Send(transport.KindRatioBatch, &reply)
	}
	return r.drop(fmt.Errorf("unexpected %s frame", m.Kind))
}

// submit runs one round's censuses through ingest. answer reports that they
// are to be answered with the members' current ratios: their round resolved,
// or was abandoned under them. A refusal is acked back instead.
func (r *reporter) submit(round int, censuses []transport.Census) (answer bool, err error) {
	r.e.register(r, censuses)
	if err = r.ingest(round, censuses); err == nil || errors.Is(err, ErrRoundAbandoned) {
		return true, nil
	}
	return false, r.ack(err)
}

// ack acks err back to the peer, unless the owner closed: then the session
// ends.
func (r *reporter) ack(err error) error {
	if errors.Is(err, transport.ErrClosed) {
		return err
	}
	return r.Ack(err)
}

// drop counts and drops a malformed or unexpected frame, keeping the conn.
func (r *reporter) drop(err error) error {
	r.e.DropFrame(err)
	return nil
}

// register remembers r as the session the censuses' members report on,
// writing only where that changed. Takes the lock.
func (e *Engine) register(r *reporter, censuses []transport.Census) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range censuses {
		if edge := censuses[i].Edge; e.Owns(edge) && e.roster[edge].sess != r {
			e.roster[edge].sess = r
		}
	}
}

// dropSessions forgets every member registration pointing at r (the conn
// closed; a reconnecting edge re-registers with its next census). Takes the
// lock.
func (e *Engine) dropSessions(r *reporter) {
	e.mu.Lock()
	for id := range e.roster {
		if e.roster[id].sess == r {
			e.roster[id].sess = nil
		}
	}
	e.mu.Unlock()
}

// PushCorrections fans one rewind's corrected ratios out to the sessions
// their regions report on: x[i] is region edges[i]'s ratio, edges ascending.
// The regions are grouped by session — one nobody reports for is left out —
// and each session is sent one region-set frame carrying the owner's seq.
// The sends run off the lock, one goroutine per session: a send can block on
// a slow peer, and a failed one is expected (the edge may have hung up) and
// harmless, because the monotonic Seq lets the next rewind's frame supersede
// whatever this one would have said. Returns how many regions were placed.
// Called with the lock held.
func (e *Engine) PushCorrections(round int, seq int64, edges []int, x []float64) (placed int) {
	// Size each session's frame first, so its two slices are allocated once.
	fan := e.fanout[:0]
	for _, edge := range edges {
		if e.Owns(edge) && e.roster[edge].sess != nil {
			r := e.roster[edge].sess
			if r.regions == 0 {
				fan = append(fan, r)
			}
			r.regions++
		}
	}
	for _, r := range fan {
		r.rc = &transport.RatioCorrection{Round: round, Seq: seq, Edges: make([]int, 0, r.regions), X: make([]float64, 0, r.regions)}
	}
	for i, edge := range edges {
		if e.Owns(edge) && e.roster[edge].sess != nil {
			r := e.roster[edge].sess
			r.rc.Edges = append(r.rc.Edges, edge)
			r.rc.X = append(r.rc.X, x[i])
			placed++
		}
	}
	for _, r := range fan {
		go r.Send(transport.KindRatioCorrection, r.rc)
		r.regions, r.rc = 0, nil
	}
	clear(fan) // pins no session
	e.fanout = fan[:0]
	return placed
}
