package transport

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
)

// instrumented builds a fault injector with a fresh shared registry installed
// before anything is wrapped (Instrument does not carry over earlier counts)
// and returns a reader for its transport_fault_* series.
func instrumented(cfg FaultConfig) (*Fault, func(name string) int64) {
	o := obs.New()
	f := NewFault(cfg)
	f.Instrument(o)
	return f, func(name string) int64 {
		for _, p := range o.Registry().Snapshot() {
			if p.Name == name && len(p.Labels) == 0 {
				return int64(p.Value)
			}
		}
		return 0
	}
}

func ratioMsg(t *testing.T, round int) Message {
	t.Helper()
	m, err := Encode(KindRatio, Ratio{Round: round, X: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// countUntilEOF drains conn, returning how many messages arrived.
func countUntilEOF(conn Conn) int {
	n := 0
	for {
		if _, err := conn.Recv(); err != nil {
			return n
		}
		n++
	}
}

func TestFaultDropStatsConsistent(t *testing.T) {
	f, ctr := instrumented(FaultConfig{Seed: 1, DropProb: 0.3})
	a, b := Pipe()
	fa := f.WrapConn(a)

	const n = 200
	got := make(chan int, 1)
	go func() { got <- countUntilEOF(b) }()
	for i := 0; i < n; i++ {
		if err := fa.Send(ratioMsg(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
	received := <-got

	sent := ctr("transport_fault_sent_total")
	dropped := ctr("transport_fault_dropped_total")
	if sent != n {
		t.Errorf("transport_fault_sent_total = %d, want %d", sent, n)
	}
	if dropped == 0 || dropped == n {
		t.Errorf("transport_fault_dropped_total = %d of %d, want some but not all", dropped, n)
	}
	if want := sent - dropped; int64(received) != want {
		t.Errorf("receiver got %d messages, want sent-dropped = %d", received, want)
	}
}

func TestFaultDeterministicUnderSeed(t *testing.T) {
	series := []string{
		"transport_fault_sent_total",
		"transport_fault_dropped_total",
		"transport_fault_duplicated_total",
		"transport_fault_delayed_total",
		"transport_fault_disconnects_total",
		"transport_fault_accept_failures_total",
	}
	run := func() [6]int64 {
		f, ctr := instrumented(FaultConfig{Seed: 99, DropProb: 0.25, DupProb: 0.2})
		a, b := Pipe()
		fa := f.WrapConn(a)
		done := make(chan int, 1)
		go func() { done <- countUntilEOF(b) }()
		for i := 0; i < 150; i++ {
			if err := fa.Send(ratioMsg(t, i)); err != nil {
				t.Fatal(err)
			}
		}
		_ = fa.Close()
		<-done
		var out [6]int64
		for i, name := range series {
			out[i] = ctr(name)
		}
		return out
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("fault sequences diverged for the same seed:\n  %v\n  %v\n  (series %v)", first, second, series)
	}
}

func TestFaultDuplicates(t *testing.T) {
	f, ctr := instrumented(FaultConfig{Seed: 3, DupProb: 1})
	a, b := Pipe()
	fa := f.WrapConn(a)
	if err := fa.Send(ratioMsg(t, 1)); err != nil {
		t.Fatal(err)
	}
	_ = fa.Close()
	if got := countUntilEOF(b); got != 2 {
		t.Errorf("received %d copies, want 2", got)
	}
	if got := ctr("transport_fault_duplicated_total"); got != 1 {
		t.Errorf("transport_fault_duplicated_total = %d, want 1", got)
	}
}

func TestFaultDelayDelivers(t *testing.T) {
	f, ctr := instrumented(FaultConfig{Seed: 4, MinDelay: 20 * time.Millisecond, MaxDelay: 40 * time.Millisecond})
	a, b := Pipe()
	fa := f.WrapConn(a)
	start := time.Now()
	if err := fa.Send(ratioMsg(t, 7)); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~20ms of injected delay", elapsed)
	}
	var r Ratio
	if err := Decode(m, KindRatio, &r); err != nil || r.Round != 7 {
		t.Errorf("delayed message corrupted: %+v, %v", r, err)
	}
	// A body the codec refuses fails its Send, as an undelayed one does, and
	// is never scheduled.
	if err := fa.Send(mustEncode(t, KindAck, make(chan int))); err == nil {
		t.Error("a delayed Send of an unencodable body returned nil")
	}
	if got := ctr("transport_fault_delayed_total"); got != 1 {
		t.Errorf("transport_fault_delayed_total = %d, want 1", got)
	}
}

func TestFaultDisconnectAfter(t *testing.T) {
	f, ctr := instrumented(FaultConfig{Seed: 5, DisconnectAfter: 2})
	a, b := Pipe()
	fa := f.WrapConn(a)
	for i := 0; i < 2; i++ {
		if err := fa.Send(ratioMsg(t, i)); err != nil {
			t.Fatalf("send %d within budget: %v", i, err)
		}
	}
	if err := fa.Send(ratioMsg(t, 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("send past budget = %v, want ErrClosed", err)
	}
	if _, err := fa.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("recv after trip = %v, want EOF", err)
	}
	// The peer sees the forced close after draining what got through.
	if got := countUntilEOF(b); got != 2 {
		t.Errorf("peer received %d messages, want 2", got)
	}
	if got := ctr("transport_fault_disconnects_total"); got != 1 {
		t.Errorf("transport_fault_disconnects_total = %d, want 1", got)
	}
}

func TestFaultyListenerAcceptFailure(t *testing.T) {
	f, ctr := instrumented(FaultConfig{Seed: 6, AcceptFailProb: 1})
	n := NewInprocNetwork()
	inner, err := n.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	l := f.WrapListener(inner)
	if l.Addr() != "cloud" {
		t.Errorf("Addr = %q, want passthrough", l.Addr())
	}
	dialed := make(chan Conn, 1)
	go func() {
		c, err := n.Dial("cloud")
		if err != nil {
			return
		}
		dialed <- c
	}()
	if _, err := l.Accept(); !errors.Is(err, ErrInjected) {
		t.Errorf("Accept = %v, want ErrInjected", err)
	}
	if got := ctr("transport_fault_accept_failures_total"); got != 1 {
		t.Errorf("transport_fault_accept_failures_total = %d, want 1", got)
	}
	// The rejected dialer's conn was closed server-side: its Recv sees EOF.
	select {
	case c := <-dialed:
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Errorf("rejected conn Recv = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dial did not complete")
	}
	_ = l.Close()
}
