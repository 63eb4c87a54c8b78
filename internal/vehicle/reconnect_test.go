package vehicle

import (
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// TestRunWithReconnectReregisters: when the edge drops the session, the
// client redials and re-registers with a fresh Hello, keeping its agent
// state, and exits cleanly once Stop closes.
func TestRunWithReconnectReregisters(t *testing.T) {
	agent, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SetDecision(1); err != nil {
		t.Fatal(err)
	}

	serverConns := make(chan transport.Conn, 4)
	dials := 0
	d := &transport.Dialer{
		Dial: func() (transport.Conn, error) {
			dials++
			a, b := transport.Pipe()
			serverConns <- b
			return a, nil
		},
		Seed:  1,
		Sleep: func(time.Duration) {},
	}

	stop := make(chan struct{})
	client := &Client{
		Agent:           agent,
		Mu:              0, // decision stays put across sessions
		Cap:             sensor.TableIII(),
		RegisterTimeout: 2 * time.Second,
		Stop:            stop,
	}
	done := make(chan error, 1)
	go func() { done <- client.RunWithReconnect(d) }()

	expectHello := func(conn transport.Conn) {
		t.Helper()
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("waiting for hello: %v", err)
		}
		var hello transport.Hello
		if err := transport.Decode(m, transport.KindHello, &hello); err != nil {
			t.Fatal(err)
		}
		if hello.Vehicle != 7 {
			t.Fatalf("hello from vehicle %d, want 7", hello.Vehicle)
		}
		ack, err := transport.Encode(transport.KindAck, transport.Ack{})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(ack); err != nil {
			t.Fatal(err)
		}
	}

	// Session 1: register, then the server drops the conn.
	s1 := <-serverConns
	expectHello(s1)
	_ = s1.Close()

	// Session 2: the client re-registered on its own; drive one policy round
	// to prove the new session is live.
	s2 := <-serverConns
	expectHello(s2)
	pol, err := transport.Encode(transport.KindPolicy, transport.Policy{
		Round: 0, X: 0.9, Counts: []int{1, 0, 0, 0, 0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Send(pol); err != nil {
		t.Fatal(err)
	}
	m, err := s2.Recv()
	if err != nil {
		t.Fatalf("waiting for upload: %v", err)
	}
	var up transport.Upload
	if err := transport.Decode(m, transport.KindUpload, &up); err != nil {
		t.Fatal(err)
	}
	if up.Round != 0 || up.Decision != 1 { // the vehicle is the session's hello
		t.Errorf("upload after reconnect = %+v", up)
	}

	close(stop)
	_ = s2.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("RunWithReconnect = %v, want nil after Stop", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunWithReconnect did not return after Stop")
	}
	if dials < 2 {
		t.Errorf("dialed %d times, want at least 2 (one reconnect)", dials)
	}
}

// TestRunWithReconnectRetriesRejection: a stale-session registration
// rejection is treated as transient and retried instead of failing the
// vehicle.
func TestRunWithReconnectRetriesRejection(t *testing.T) {
	agent, err := NewAgent(profile(4), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	serverConns := make(chan transport.Conn, 4)
	d := &transport.Dialer{
		Dial: func() (transport.Conn, error) {
			a, b := transport.Pipe()
			serverConns <- b
			return a, nil
		},
		Seed:  1,
		Sleep: func(time.Duration) {},
	}
	stop := make(chan struct{})
	client := &Client{Agent: agent, Mu: 0.5, RegisterTimeout: 2 * time.Second, Stop: stop}
	done := make(chan error, 1)
	go func() { done <- client.RunWithReconnect(d) }()

	// Session 1: reject the registration (ghost of a dead session).
	s1 := <-serverConns
	if _, err := s1.Recv(); err != nil {
		t.Fatal(err)
	}
	nack, err := transport.Encode(transport.KindAck, transport.Ack{Err: "vehicle 4 already registered"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Send(nack); err != nil {
		t.Fatal(err)
	}

	// Session 2: the client tried again; accept it and stop.
	s2 := <-serverConns
	if _, err := s2.Recv(); err != nil {
		t.Fatal(err)
	}
	ack, err := transport.Encode(transport.KindAck, transport.Ack{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Send(ack); err != nil {
		t.Fatal(err)
	}
	close(stop)
	_ = s2.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("RunWithReconnect = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunWithReconnect did not return after Stop")
	}
}

// TestStopEndsTheRedialWait: a client redialing a dead edge through a long
// backoff schedule returns as soon as Stop closes, not after its attempts
// run out (20 attempts at 2–100 ms wait about 1.4 s).
func TestStopEndsTheRedialWait(t *testing.T) {
	agent, err := NewAgent(profile(3), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &transport.Dialer{
		Dial:        func() (transport.Conn, error) { return nil, transport.ErrClosed },
		MaxAttempts: 20,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Seed:        1,
	}
	stop := make(chan struct{})
	client := &Client{Agent: agent, Stop: stop}
	done := make(chan error, 1)
	go func() { done <- client.RunWithReconnect(d) }()

	time.Sleep(150 * time.Millisecond) // into the schedule's 100 ms steps
	close(stop)
	stopped := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("RunWithReconnect = %v, want nil after Stop", err)
		}
		if waited := time.Since(stopped); waited > 100*time.Millisecond {
			t.Errorf("RunWithReconnect returned %v after Stop, want within 100ms", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWithReconnect did not return after Stop")
	}
}
