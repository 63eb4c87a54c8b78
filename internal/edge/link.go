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
	// is never redelivered to the right exchange).
	reqMu sync.Mutex

	mu          sync.Mutex
	conn        transport.Conn
	dialed      bool
	lastSeq     int64        // newest adopted correction sequence
	redials     *obs.Counter // edge_cloud_redials_total
	reports     *obs.Counter // the owner's *_reports_total
	corrections *obs.Counter // edge_ratio_corrections_total
}

// bind lazily points the link's counters at *o (installing a private
// observer there when nil, so Redials still counts). reports names the
// owner's submission counter.
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

// Redials returns how many times the link re-established its connection
// after the first dial.
func (l *link) redialCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.redials.Value())
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

// ensureConn returns the live connection, dialing one if needed.
func (l *link) ensureConn(d *transport.Dialer) (transport.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		return l.conn, nil
	}
	if d == nil {
		return nil, errors.New("link has no dialer")
	}
	conn, err := d.DialRetry()
	if err != nil {
		return nil, fmt.Errorf("dialing: %w", err)
	}
	if l.dialed {
		l.redials.Inc()
	}
	l.dialed = true
	l.conn = conn
	return conn, nil
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
// across connection failures, up to attempts times (default 3). A dial
// failure ends the exchange — the dialer already retried with backoff —
// and so does any error that is not a connection failure. After a
// connection that dialed fine but then failed, the link rests one backoff
// step before re-submitting: a server that is shutting down still accepts
// (and immediately drops) connections, and instant retries would burn every
// attempt in microseconds.
func (l *link) exchange(d *transport.Dialer, attempts int, fn func(transport.Conn) error) error {
	l.reqMu.Lock()
	defer l.reqMu.Unlock()
	if attempts <= 0 {
		attempts = 3
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d.Pause(a - 1)
		}
		conn, err := l.ensureConn(d)
		if err != nil {
			return err
		}
		l.reports.Inc()
		if lastErr = fn(conn); lastErr == nil {
			return nil
		}
		l.dropConn(conn)
		if !transport.IsConnError(lastErr) {
			return lastErr
		}
	}
	return fmt.Errorf("failed after %d attempts: %w", attempts, lastErr)
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
	return p.exchange(p.Dialer, 0, fn)
}
