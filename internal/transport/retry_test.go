package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestBackoffDeterministic: for a fixed seed the jittered schedule is a
// reproducible sequence, and every delay stays inside the jitter envelope of
// the capped exponential.
func TestBackoffDeterministic(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		base time.Duration
		max  time.Duration
	}{
		{"defaults", 1, 0, 0},
		{"fast", 7, 2 * time.Millisecond, 50 * time.Millisecond},
		{"slow", 42, 100 * time.Millisecond, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d1 := &Dialer{Seed: tc.seed, BaseDelay: tc.base, MaxDelay: tc.max}
			d2 := &Dialer{Seed: tc.seed, BaseDelay: tc.base, MaxDelay: tc.max}
			base, max := tc.base, tc.max
			if base <= 0 {
				base = 10 * time.Millisecond
			}
			if max <= 0 {
				max = 2 * time.Second
			}
			for a := 0; a < 12; a++ {
				b1, b2 := d1.Backoff(a), d2.Backoff(a)
				if b1 != b2 {
					t.Fatalf("attempt %d: schedules diverged, %v vs %v", a, b1, b2)
				}
				nominal := base
				for i := 0; i < a && nominal < max; i++ {
					nominal *= 2
				}
				if nominal > max {
					nominal = max
				}
				lo := time.Duration(float64(nominal) * 0.8)
				hi := time.Duration(float64(nominal) * 1.2)
				if b1 < lo || b1 > hi {
					t.Errorf("attempt %d: delay %v outside jitter envelope [%v, %v]", a, b1, lo, hi)
				}
			}
		})
	}
}

func TestBackoffNoJitterSchedule(t *testing.T) {
	d := &Dialer{BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: -1}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		100 * time.Millisecond, // capped
		100 * time.Millisecond,
	}
	for a, w := range want {
		if got := d.Backoff(a); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", a, got, w)
		}
	}
	if got := d.Backoff(-3); got != 10*time.Millisecond {
		t.Errorf("negative attempt = %v, want base delay", got)
	}
}

func TestDialRetryRecovers(t *testing.T) {
	a, _ := Pipe()
	calls := 0
	var sleeps []time.Duration
	d := &Dialer{
		Dial: func() (Conn, error) {
			calls++
			if calls < 3 {
				return nil, errors.New("connection refused")
			}
			return a, nil
		},
		Seed:  1,
		Sleep: func(t time.Duration) { sleeps = append(sleeps, t) },
	}
	c, err := d.DialRetry(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("DialRetry returned the wrong conn")
	}
	if calls != 3 {
		t.Errorf("dialed %d times, want 3", calls)
	}
	if len(sleeps) != 2 {
		t.Errorf("slept %d times between attempts, want 2", len(sleeps))
	}
	// The recorded sleeps follow the dialer's own schedule.
	check := &Dialer{Seed: 1}
	for i, s := range sleeps {
		if want := check.Backoff(i); s != want {
			t.Errorf("sleep %d = %v, want %v", i, s, want)
		}
	}
}

func TestDialRetryExhausts(t *testing.T) {
	d := &Dialer{
		Dial:        func() (Conn, error) { return nil, errors.New("host down") },
		MaxAttempts: 4,
		Sleep:       func(time.Duration) {},
	}
	_, err := d.DialRetry(nil)
	if err == nil {
		t.Fatal("exhausted dialer must error")
	}
	if !strings.Contains(err.Error(), "after 4 attempts") || !strings.Contains(err.Error(), "host down") {
		t.Errorf("error should report attempts and wrap the last failure: %v", err)
	}
	if _, err := (&Dialer{}).DialRetry(nil); err == nil {
		t.Error("dialer without Dial func must error")
	}
}

func TestRecvTimeoutClosesConn(t *testing.T) {
	a, b := Pipe()
	_, err := RecvTimeout(a, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("RecvTimeout = %v, want ErrTimeout", err)
	}
	// The timed-out conn is dead and must be discarded.
	m, _ := Encode(KindAck, Ack{})
	if err := a.Send(m); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on timed-out conn = %v, want ErrClosed", err)
	}
	_ = b.Close()
}

func TestRecvTimeoutPassesMessages(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want, _ := Encode(KindAck, Ack{})
	if err := b.Send(want); err != nil {
		t.Fatal(err)
	}
	if _, err := RecvTimeout(a, time.Second); err != nil {
		t.Fatalf("RecvTimeout with a queued message: %v", err)
	}
	// d <= 0 falls through to a plain blocking Recv.
	if err := b.Send(want); err != nil {
		t.Fatal(err)
	}
	if _, err := RecvTimeout(a, 0); err != nil {
		t.Fatalf("RecvTimeout(0): %v", err)
	}
}

func TestIsConnError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"wrapped eof", fmt.Errorf("recv: %w", io.EOF), true},
		{"closed", ErrClosed, true},
		{"timeout", ErrTimeout, true},
		{"injected", ErrInjected, true},
		{"net closed", net.ErrClosed, true},
		{"net op error", &net.OpError{Op: "read", Err: errors.New("reset")}, true},
		{"protocol", errors.New("unexpected message kind"), false},
	}
	for _, tc := range cases {
		if got := IsConnError(tc.err); got != tc.want {
			t.Errorf("%s: IsConnError = %v, want %v", tc.name, got, tc.want)
		}
	}
}
