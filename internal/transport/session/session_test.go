package session

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
)

// pair returns wrapped ends of an in-proc pipe plus a cleanup.
func pair(t *testing.T) (*Session, *Session) {
	t.Helper()
	a, b := transport.Pipe()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return Wrap(a), Wrap(b)
}

// serveDone runs sess.Serve on its own goroutine and returns the result
// channel.
func serveDone(sess *Session, handlers map[transport.Kind]Handler, unknown Handler) <-chan error {
	done := make(chan error, 1)
	go func() { done <- sess.Serve(handlers, unknown) }()
	return done
}

func TestAck(t *testing.T) {
	a, b := pair(t)
	go func() {
		_ = a.Ack(nil)
		_ = a.Ack(errors.New("refused"))
	}()
	for i, wantErr := range []string{"", "refused"} {
		m, err := b.Conn().Recv()
		if err != nil {
			t.Fatal(err)
		}
		var ack transport.Ack
		if err := transport.Decode(m, transport.KindAck, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Err != wantErr {
			t.Errorf("ack %d err = %q, want %q", i, ack.Err, wantErr)
		}
	}
}

func TestServeDispatchAndCleanClose(t *testing.T) {
	a, b := pair(t)
	got := make(chan transport.Ratio, 1)
	done := serveDone(b, map[transport.Kind]Handler{
		transport.KindRatio: func(m transport.Message) error {
			var r transport.Ratio
			if err := transport.Decode(m, transport.KindRatio, &r); err != nil {
				return err
			}
			got <- r
			return nil
		},
	}, nil)
	if err := a.Send(transport.KindRatio, transport.Ratio{Round: 4, X: 0.25}); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.Round != 4 || r.X != 0.25 {
		t.Errorf("handler saw %+v", r)
	}
	_ = a.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve after clean close = %v, want nil", err)
	}
}

func TestServeUnknownKindAcksAndContinues(t *testing.T) {
	a, b := pair(t)
	done := serveDone(b, nil, nil)
	if err := a.Send(transport.KindPolicy, transport.Policy{Round: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := a.Conn().Recv()
	if err != nil {
		t.Fatal(err)
	}
	var ack transport.Ack
	if err := transport.Decode(m, transport.KindAck, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Error("unknown kind must be acked with an error")
	}
	// The loop survived the unknown message.
	_ = a.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
}

func TestServeHandlerErrorStopsLoop(t *testing.T) {
	a, b := pair(t)
	boom := errors.New("boom")
	done := serveDone(b, map[transport.Kind]Handler{
		transport.KindAck: func(transport.Message) error { return boom },
	}, nil)
	if err := a.Ack(nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, boom) {
		t.Errorf("Serve = %v, want boom", err)
	}
}

func TestRegisterAccepted(t *testing.T) {
	a, b := pair(t)
	go func() {
		hello, err := b.AcceptRegistration()
		if err != nil || hello.Vehicle != 11 {
			panic(fmt.Sprintf("accept: %+v %v", hello, err))
		}
		_ = b.Ack(nil)
	}()
	pending, err := a.Register(11, time.Second)
	if err != nil {
		t.Fatalf("Register = %v", err)
	}
	if pending != nil {
		t.Errorf("pending = %+v, want nil", pending)
	}
}

func TestRegisterRejected(t *testing.T) {
	a, b := pair(t)
	go func() {
		_, _ = b.AcceptRegistration()
		_ = b.Ack(errors.New("already registered"))
	}()
	_, err := a.Register(11, time.Second)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Register = %v, want RejectedError", err)
	}
	if rej.Reason != "already registered" {
		t.Errorf("reason = %q", rej.Reason)
	}
	if transport.IsConnError(err) {
		t.Error("a rejection must not classify as a connection error")
	}
}

// TestRegisterAckLostBroadcastArrives: on a lossy link the registration ack
// can vanish while the round's policy broadcast still arrives; the handshake
// must hand that message back instead of failing.
func TestRegisterAckLostBroadcastArrives(t *testing.T) {
	a, b := pair(t)
	go func() {
		_, _ = b.AcceptRegistration()
		// Ack "lost": the server goes straight to the round broadcast.
		_ = b.Send(transport.KindPolicy, transport.Policy{Round: 3, X: 0.5})
	}()
	pending, err := a.Register(11, time.Second)
	if err != nil {
		t.Fatalf("Register = %v", err)
	}
	if pending == nil || pending.Kind != transport.KindPolicy {
		t.Fatalf("pending = %+v, want policy broadcast", pending)
	}
	var pol transport.Policy
	if err := transport.Decode(*pending, transport.KindPolicy, &pol); err != nil {
		t.Fatal(err)
	}
	if pol.Round != 3 {
		t.Errorf("pending round = %d", pol.Round)
	}
}

func TestAcceptRegistrationMalformedAcksError(t *testing.T) {
	a, b := pair(t)
	go func() {
		_ = a.Send(transport.KindCensus, transport.Census{Edge: 1})
	}()
	_, err := b.AcceptRegistration()
	if err == nil {
		t.Fatal("AcceptRegistration accepted a census frame")
	}
	// The peer was told why before the error returned.
	m, recvErr := a.Conn().Recv()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	var ack transport.Ack
	if err := transport.Decode(m, transport.KindAck, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Error("malformed hello must be acked with an error")
	}
}

func TestRequestSkipsStaleReplies(t *testing.T) {
	a, b := pair(t)
	go func() {
		if _, err := b.Conn().Recv(); err != nil {
			return
		}
		// A stale ratio from a previous round, then the real answer.
		_ = b.Send(transport.KindRatio, transport.Ratio{Round: 5, X: 0.1})
		_ = b.Send(transport.KindRatio, transport.Ratio{Round: 6, X: 0.9})
	}()
	x, err := ReportCensusWith(a.Conn(), 2, 5, []int{1, 2}, time.Second, nil)
	if err != nil {
		t.Fatalf("ReportCensusWith = %v", err)
	}
	if x != 0.9 {
		t.Errorf("x = %v, want 0.9 (stale reply must be skipped)", x)
	}
}

func TestRequestRejected(t *testing.T) {
	a, b := pair(t)
	go func() {
		if _, err := b.Conn().Recv(); err != nil {
			return
		}
		_ = b.Ack(errors.New("round abandoned"))
	}()
	_, err := ReportCensusWith(a.Conn(), 2, 5, []int{1, 2}, time.Second, nil)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("ReportCensusWith = %v, want RejectedError", err)
	}
	if rej.Reason != "round abandoned" {
		t.Errorf("reason = %q", rej.Reason)
	}
}

func TestRequestTimeoutClosesConn(t *testing.T) {
	a, b := pair(t)
	_ = b // peer never answers
	err := a.Request(transport.KindCensus, transport.Census{}, transport.KindRatio,
		&transport.Ratio{}, 20*time.Millisecond, nil)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("Request = %v, want ErrTimeout", err)
	}
	if !transport.IsConnError(err) {
		t.Error("timeout must classify as a connection error so callers redial")
	}
}

// TestRequestWithHandlesInterleavedFrames: the cloud can push asynchronous
// ratio-correction frames on the connection a census reply is awaited on;
// RequestWith must hand them to onOther and keep waiting instead of failing.
func TestRequestWithHandlesInterleavedFrames(t *testing.T) {
	a, b := pair(t)
	go func() {
		if _, err := b.Conn().Recv(); err != nil {
			return
		}
		_ = b.Send(transport.KindRatioCorrection, transport.RatioCorrection{Round: 4, Seq: 1, Edges: []int{2}, X: []float64{0.3}})
		_ = b.Send(transport.KindRatio, transport.Ratio{Round: 6, X: 0.9})
	}()
	var corrected []transport.RatioCorrection
	x, err := ReportCensusWith(a.Conn(), 2, 5, []int{1, 2}, time.Second,
		func(m transport.Message) error {
			var rc transport.RatioCorrection
			if err := transport.Decode(m, transport.KindRatioCorrection, &rc); err != nil {
				return err
			}
			corrected = append(corrected, rc)
			return nil
		})
	if err != nil {
		t.Fatalf("ReportCensusWith = %v", err)
	}
	if x != 0.9 {
		t.Errorf("x = %v, want 0.9", x)
	}
	if len(corrected) != 1 || corrected[0].Seq != 1 || len(corrected[0].X) != 1 || corrected[0].X[0] != 0.3 {
		t.Errorf("corrections = %+v, want one with seq 1", corrected)
	}
}

// TestRequestWithoutHandlerStillStrict: a nil onOther preserves the old
// behavior — an unexpected kind fails the exchange.
func TestRequestWithoutHandlerStillStrict(t *testing.T) {
	a, b := pair(t)
	go func() {
		if _, err := b.Conn().Recv(); err != nil {
			return
		}
		_ = b.Send(transport.KindRatioCorrection, transport.RatioCorrection{Round: 4, Seq: 1, Edges: []int{2}, X: []float64{0.3}})
	}()
	_, err := ReportCensusWith(a.Conn(), 2, 5, []int{1, 2}, time.Second, nil)
	if err == nil {
		t.Fatal("ReportCensusWith accepted an unexpected frame kind")
	}
}

func TestRenewLeaseAckedAndRejected(t *testing.T) {
	a, b := pair(t)
	// Server side: grant the first renewal, refuse the second.
	go func() {
		for _, reject := range []bool{false, true} {
			m, err := b.Conn().Recv()
			if err != nil {
				return
			}
			var lease transport.Lease
			if err := transport.Decode(m, transport.KindLease, &lease); err != nil {
				_ = b.Ack(err)
				continue
			}
			if reject {
				_ = b.Ack(fmt.Errorf("unknown edge %d", lease.Edge))
			} else if lease.Edge != 3 || lease.TTLMillis != 250 {
				_ = b.Ack(fmt.Errorf("bad lease %+v", lease))
			} else {
				_ = b.Ack(nil)
			}
		}
	}()
	if err := RenewLease(a.Conn(), 3, 250*time.Millisecond, time.Second); err != nil {
		t.Fatalf("first renewal: %v", err)
	}
	err := RenewLease(a.Conn(), 3, 250*time.Millisecond, time.Second)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("second renewal = %v, want *RejectedError", err)
	}
}

func TestRenewLeaseTimeoutClosesConn(t *testing.T) {
	a, _ := pair(t)
	err := RenewLease(a.Conn(), 1, time.Second, 20*time.Millisecond)
	if err == nil {
		t.Fatal("RenewLease with silent peer succeeded")
	}
	if !transport.IsConnError(err) {
		t.Fatalf("timeout error %v is not a conn error", err)
	}
}
