package edge

import (
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// Heartbeat maintains an edge server's membership lease with the cloud. It
// runs on a dedicated connection — never the census link, whose
// request/reply exchange would race with the lease acks — over the same
// redial-and-resend core as the census link: every Interval one renewal,
// redialed and re-sent across connection failures, so a restarted cloud
// re-admits the edge as soon as it is reachable again. While the edge is
// down (its heartbeat stopped), the cloud evicts it from the round barrier
// quorum after at most TTL.
type Heartbeat struct {
	// Edge identifies this region to the cloud.
	Edge int
	// Dialer establishes cloud connections with backoff (required).
	Dialer *transport.Dialer
	// TTL is the lease duration declared to the cloud (default 2s). The
	// cloud evicts the edge TTL after the last renewal it saw.
	TTL time.Duration
	// Interval is the renewal period (default TTL/3, so two renewals may be
	// lost before the lease lapses).
	Interval time.Duration
	// AckTimeout bounds each renewal's ack wait (default TTL).
	AckTimeout time.Duration
	// Obs, when non-nil, is the observer the heartbeat reports through
	// (edge_lease_renewals_total, edge_lease_redials_total).
	Obs *obs.Observer

	link
}

// Run renews the lease until stop closes. It blocks; run it in a goroutine.
// Failures never terminate the loop — a dead cloud is exactly when the
// heartbeat must keep dialing, so the lease is re-granted the moment a
// restarted cloud comes back. A renewal that fails, whether refused, undialable
// or dropped on every attempt, is followed by the same one-interval rest as an
// acked one, so a cloud that accepts and drops connections is not redialed in
// a tight loop.
func (h *Heartbeat) Run(stop <-chan struct{}) {
	ttl := h.TTL
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	interval := h.Interval
	if interval <= 0 {
		interval = ttl / 3
	}
	ackTimeout := h.AckTimeout
	if ackTimeout <= 0 {
		ackTimeout = ttl
	}
	o := h.Obs
	if o == nil {
		o = obs.New()
	}
	renewals := o.Counter("edge_lease_renewals_total", "membership lease renewals acked by the cloud")
	h.mu.Lock()
	h.redials = o.Counter("edge_lease_redials_total", "heartbeat reconnects after the first dial")
	h.mu.Unlock()
	defer h.Close()

	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		err := h.exchange(h.Dialer, 0, nil, func(conn transport.Conn) error {
			lease := transport.Lease{Edge: h.Edge, TTLMillis: ttl.Milliseconds()}
			return session.Wrap(conn).Notify(transport.KindLease, lease, ackTimeout)
		})
		if err == nil {
			renewals.Inc()
		}
		t.Reset(interval)
	}
}
