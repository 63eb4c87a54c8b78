package edge

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/transport"
)

// link is the redial-and-resend core under CloudLink, BatchLink, PeerLink
// and Heartbeat: one lazily dialed connection, whole exchanges serialized over
// it, and a retry loop that drops the connection on a link failure, rests
// one backoff step, redials and runs the exchange again. The receiving tier
// treats a re-sent frame as a last-write-wins duplicate, so retries are
// harmless.
type link struct {
	// reqMu serializes whole exchanges: interleaved request/reply pairs on
	// one connection would cross replies between waiters (a consumed frame
	// is never redelivered to the right exchange). It guards answered.
	reqMu    sync.Mutex
	answered answered // the census links' newest answered round

	mu          sync.Mutex
	conn        transport.Conn
	dialed      bool
	lastSeq     int64        // newest adopted correction sequence
	redials     *obs.Counter // edge_cloud_redials_total
	reports     *obs.Counter // the owner's *_reports_total
	corrections *obs.Counter // edge_ratio_corrections_total
}

// bind lazily points the link's counters at *o (installing a private
// observer there when nil, so edge_cloud_redials_total still counts).
// reports names the owner's submission counter.
func (l *link) bind(o **obs.Observer, reports, help string) *link {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.redials == nil {
		if *o == nil {
			*o = obs.New()
		}
		l.redials = (*o).Counter("edge_cloud_redials_total", "cloud-link reconnects after the first dial")
		l.reports = (*o).Counter(reports, help)
		l.corrections = (*o).Counter("edge_ratio_corrections_total", "regions whose corrected ratio was adopted after a cloud fixed-lag rewind")
	}
	return l
}

// Close drops the link's connection, if any.
func (l *link) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn = nil
	return err
}

// ensureConn returns the live connection, dialing one if needed; redialed
// reports that it did, and not for the first time.
func (l *link) ensureConn(d *transport.Dialer) (conn transport.Conn, redialed bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		return l.conn, false, nil
	}
	if d == nil {
		return nil, false, errors.New("link has no dialer")
	}
	if conn, err = d.DialRetry(nil); err != nil {
		return nil, false, fmt.Errorf("dialing: %w", err)
	}
	if redialed = l.dialed; redialed {
		l.redials.Inc()
	}
	l.dialed = true
	l.conn = conn
	return conn, redialed, nil
}

// dropConn discards conn if it is still the link's current connection.
func (l *link) dropConn(conn transport.Conn) {
	_ = conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
}

// exchange runs fn over the link's connection, redialing and re-running it
// across connection failures, up to attempts times (default 3); on a
// redialed connection resend, when non-nil, runs first, and only a
// connection failure of its fails the attempt. A dial failure ends the
// exchange — the dialer already retried with backoff — and so does any
// error that is not a connection failure. After a connection that dialed
// fine but then failed, the link rests one backoff step before
// re-submitting: a server that is shutting down still accepts (and
// immediately drops) connections, and instant retries would burn every
// attempt in microseconds.
func (l *link) exchange(d *transport.Dialer, attempts int, resend, fn func(transport.Conn) error) error {
	l.reqMu.Lock()
	defer l.reqMu.Unlock()
	if attempts <= 0 {
		attempts = 3
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d.Pause(a-1, nil)
		}
		conn, redialed, err := l.ensureConn(d)
		if err != nil {
			return err
		}
		l.reports.Inc()
		if lastErr = nil; redialed && resend != nil {
			if err := resend(conn); transport.IsConnError(err) {
				lastErr = err // any other failure is the re-send's answer, which is discarded
			}
		}
		if lastErr == nil {
			lastErr = fn(conn)
		}
		if lastErr == nil {
			return nil
		}
		l.dropConn(conn)
		if !transport.IsConnError(lastErr) {
			return lastErr
		}
	}
	return fmt.Errorf("failed after %d attempts: %w", attempts, lastErr)
}

// answered is the newest round a census link's peer answered: its censuses,
// copied into the link's own storage, which a redialed connection re-sends
// ahead of the exchange in progress. A cloud answers a full round before its
// record is durable, so a crash may lose the one round it answered last; the
// re-sent censuses fold it again, and a cloud that kept the round takes them
// as late duplicates. A CloudLink keeps each answered census, without
// allocating after the first rounds; a BatchLink fills it from its owner's
// Last only when it redials.
type answered struct {
	round    int
	censuses []transport.Census // none before the first answer
	counts   []int              // the storage their counts are cut from
}

// keep records censuses as answered for round, in place of an older round's;
// an older round's, answered after, are not kept.
func (a *answered) keep(round int, censuses []transport.Census) {
	if len(a.censuses) > 0 && round < a.round {
		return
	}
	a.round, a.censuses, a.counts = round, a.censuses[:0], a.counts[:0]
	for _, c := range censuses {
		at := len(a.counts)
		a.counts = append(a.counts, c.Counts...)
		a.censuses = append(a.censuses, transport.Census{Edge: c.Edge, Round: round, Counts: a.counts[at:len(a.counts):len(a.counts)]})
	}
}

// adoptCorrection absorbs a non-reply frame that interleaved with an
// exchange. A ratio correction is one rewind as this link's session sees it,
// so it is adopted whole when its sequence advances past the newest one seen
// — a redelivered or overtaken frame reports fresh=false — and anything else
// fails the exchange, preserving the strict reply discipline. A link that
// reports for one region passes it as edge and gets its index in the set
// back as at; a frame that does not carry that region is not this link's and
// is ignored without advancing the sequence. A negative edge takes the set
// as it comes.
func (l *link) adoptCorrection(m transport.Message, edge int) (rc transport.RatioCorrection, at int, fresh bool, err error) {
	if m.Kind != transport.KindRatioCorrection {
		return rc, 0, false, fmt.Errorf("unexpected %s frame during census exchange", m.Kind)
	}
	if err := transport.Decode(m, transport.KindRatioCorrection, &rc); err != nil {
		return rc, 0, false, err
	}
	if len(rc.Edges) != len(rc.X) {
		return rc, 0, false, fmt.Errorf("ratio correction has %d edges but %d ratios", len(rc.Edges), len(rc.X))
	}
	regions := len(rc.Edges)
	if edge >= 0 {
		var mine bool
		if at, mine = slices.BinarySearch(rc.Edges, edge); !mine {
			return rc, 0, false, nil
		}
		regions = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if rc.Seq <= l.lastSeq {
		return rc, at, false, nil
	}
	l.lastSeq = rc.Seq
	l.corrections.Add(int64(regions))
	return rc, at, true, nil
}

// PeerLink is the acked-frame sibling of CloudLink: a lazily dialed
// connection to one peer (a gossip neighborhood member) over which whole
// exchanges run serialized, re-dialed and re-sent across connection
// failures. It carries no ratio reply and no metrics of its own.
type PeerLink struct {
	// Dialer establishes peer connections with backoff (required).
	Dialer *transport.Dialer

	link
}

// Exchange runs one acked frame exchange over the link, re-dialing and
// re-sending across connection failures (three attempts).
func (p *PeerLink) Exchange(fn func(transport.Conn) error) error {
	return p.exchange(p.Dialer, 0, nil, fn)
}
