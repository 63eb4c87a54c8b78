package cloud

import (
	"errors"
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// The roster's mechanics — validation, expiry, the renew-vs-expiry race,
// re-admission, Stop — are the kernel's and are tested once in
// engine_test.go; these are the cloud's end-to-end cases.

// An evicted edge must stop blocking the barrier: the healthy region's
// round completes (degraded) as soon as the dead edge's lease lapses, long
// before the round deadline backstop would fire.
func TestLeaseEvictionUnblocksBarrier(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetRoundDeadline(30 * time.Second) // backstop far beyond the test

	if err := srv.RenewLease(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.RenewLease(1, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	c0, _ := testCounts(0, 7, 10)
	start := time.Now()
	x, err := srv.Submit(transport.Census{Edge: 0, Round: 0, Counts: c0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if x < 0 || x > 1 {
		t.Fatalf("ratio %v out of range", x)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("barrier took %v: eviction did not shrink the quorum", elapsed)
	}
	reg := srv.Registry()
	if n := metricValue(t, reg, "lease_evictions_total"); n != 1 {
		t.Fatalf("lease_evictions_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "consensus_degraded_rounds_total"); n != 1 {
		t.Fatalf("degraded rounds = %v, want 1 (completed without region 1)", n)
	}
	if live := srv.LiveLeases(); len(live) != 1 || live[0] != 0 {
		t.Fatalf("live leases = %v, want [0]", live)
	}
}

// Lease renewal over the wire: KindLease frames are acked by the
// connection handler, refusals carry the reason back, and the quorum
// reflects the renewal.
func TestLeaseOverInproc(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := session.Wrap(conn)
	if err := sess.Notify(transport.KindLease, transport.Lease{Edge: 1, TTLMillis: time.Minute.Milliseconds()}, time.Second); err != nil {
		t.Fatalf("lease renewal over wire: %v", err)
	}
	if live := srv.LiveLeases(); len(live) != 1 || live[0] != 1 {
		t.Fatalf("live leases = %v, want [1]", live)
	}

	err = sess.Notify(transport.KindLease, transport.Lease{Edge: 99, TTLMillis: time.Minute.Milliseconds()}, time.Second)
	var rej *session.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("lease for unknown edge = %v, want *RejectedError", err)
	}
}
