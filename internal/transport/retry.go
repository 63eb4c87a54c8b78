package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrTimeout is returned when a transport operation exceeds its deadline.
var ErrTimeout = errors.New("transport: operation timed out")

// Dialer dials with capped exponential backoff and deterministic jitter.
// The zero value plus a Dial func is usable; unset knobs take defaults.
type Dialer struct {
	// Dial establishes one connection attempt (required).
	Dial func() (Conn, error)
	// MaxAttempts bounds one DialRetry call (default 8).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential schedule (default 2s).
	MaxDelay time.Duration
	// Jitter spreads each delay over [d*(1-Jitter), d*(1+Jitter)]
	// (default 0.2; negative disables).
	Jitter float64
	// Seed drives the jitter sequence deterministically.
	Seed int64
	// Sleep is the wait hook (default time.Sleep; tests override it).
	Sleep func(time.Duration)

	mu  sync.Mutex
	rng *rand.Rand
}

func (d *Dialer) attempts() int {
	if d.MaxAttempts > 0 {
		return d.MaxAttempts
	}
	return 8
}

// Backoff returns the delay to wait after the given 0-based failed attempt.
// For a fixed Seed the schedule is a deterministic sequence: each call
// consumes one jitter draw.
func (d *Dialer) Backoff(attempt int) time.Duration {
	base := d.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := d.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	if attempt < 0 {
		attempt = 0
	}
	delay := base
	for i := 0; i < attempt && delay < max; i++ {
		delay *= 2
	}
	if delay > max {
		delay = max
	}
	jitter := d.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter < 0 {
		return delay
	}
	d.mu.Lock()
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.Seed))
	}
	u := d.rng.Float64()
	d.mu.Unlock()
	return time.Duration(float64(delay) * (1 - jitter + 2*jitter*u))
}

// Pause waits the backoff delay that follows the given 0-based failed
// attempt (through the Sleep hook when set), or until stop closes (nil:
// never). It reports whether stop is still open.
func (d *Dialer) Pause(attempt int, stop <-chan struct{}) bool {
	if t := d.Backoff(attempt); d.Sleep != nil {
		d.Sleep(t)
	} else {
		timer := time.NewTimer(t)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-stop:
		}
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// DialRetry dials until an attempt succeeds or MaxAttempts is exhausted,
// pausing the backoff schedule between attempts, and gives up once stop
// (nil: never) closes. The returned error wraps the last dial failure.
func (d *Dialer) DialRetry(stop <-chan struct{}) (Conn, error) {
	if d.Dial == nil {
		return nil, fmt.Errorf("transport: dialer has no Dial func")
	}
	attempts := d.attempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 && !d.Pause(a-1, stop) {
			return nil, fmt.Errorf("transport: dial stopped after %d attempts: %w", a, lastErr)
		}
		c, err := d.Dial()
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: dial failed after %d attempts: %w", attempts, lastErr)
}

// IsConnError reports whether err is a connection-level failure (peer gone,
// link dropped, deadline hit, injected fault) — the class a reconnecting
// client should heal by redialing, as opposed to a protocol violation.
func IsConnError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrTimeout) || errors.Is(err, ErrInjected) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// RecvTimeout waits up to d for the next message on conn. On timeout it
// closes conn (a blocked Recv cannot otherwise be cancelled on every
// transport) and returns an error wrapping ErrTimeout, so a timed-out conn
// must be discarded and redialed. d <= 0 blocks like a plain Recv. The
// transport's own conns bound the receive themselves (a socket read
// deadline, a timer beside the pipe's channel); any other Conn — a wrapper
// that only forwards Send, Recv and Close — is waited on from a goroutine.
func RecvTimeout(conn Conn, d time.Duration) (Message, error) {
	if d <= 0 {
		return conn.Recv()
	}
	if bounded, ok := conn.(interface {
		RecvWithin(time.Duration) (Message, error)
	}); ok {
		m, err := bounded.RecvWithin(d)
		if errors.Is(err, ErrTimeout) {
			_ = conn.Close()
			return Message{}, fmt.Errorf("transport: no message within %v: %w", d, ErrTimeout)
		}
		return m, err
	}
	type result struct {
		m   Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := conn.Recv()
		ch <- result{m, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-timer.C:
		_ = conn.Close()
		return Message{}, fmt.Errorf("transport: no message within %v: %w", d, ErrTimeout)
	}
}
