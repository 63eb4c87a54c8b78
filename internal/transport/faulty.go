package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrInjected marks a failure produced by the fault-injection layer rather
// than the real network. Accept loops should treat it as transient and keep
// accepting.
var ErrInjected = errors.New("transport: injected fault")

// FaultConfig parameterizes deterministic fault injection over a Conn or
// Listener. All probabilities are per message in [0,1]; the zero value
// injects nothing.
type FaultConfig struct {
	// Seed drives every fault decision. Each wrapped conn derives its own
	// rng from Seed plus a wrap counter, so a single conn's fault sequence
	// is reproducible regardless of scheduling across conns.
	Seed int64
	// DropProb is the probability a sent message is silently discarded.
	DropProb float64
	// DupProb is the probability a sent message is delivered twice.
	DupProb float64
	// MinDelay and MaxDelay bound the injected per-message delivery delay;
	// both zero disables delays. Delayed messages are delivered
	// asynchronously, so closely spaced messages may reorder.
	MinDelay, MaxDelay time.Duration
	// DisconnectAfter force-closes the connection after this many messages
	// (sends plus receives) have passed through it; 0 disables.
	DisconnectAfter int
	// AcceptFailProb is the probability a FaultyListener's Accept closes
	// the new connection and returns ErrInjected.
	AcceptFailProb float64
}

// faultMetrics are the injector's registry-backed instruments.
type faultMetrics struct {
	sent           *obs.Counter // transport_fault_sent_total
	dropped        *obs.Counter // transport_fault_dropped_total
	duplicated     *obs.Counter // transport_fault_duplicated_total
	delayed        *obs.Counter // transport_fault_delayed_total
	disconnects    *obs.Counter // transport_fault_disconnects_total
	acceptFailures *obs.Counter // transport_fault_accept_failures_total
}

func newFaultMetrics(o *obs.Observer) faultMetrics {
	return faultMetrics{
		sent:           o.Counter("transport_fault_sent_total", "messages offered to Send on fault-wrapped conns"),
		dropped:        o.Counter("transport_fault_dropped_total", "messages silently discarded by fault injection"),
		duplicated:     o.Counter("transport_fault_duplicated_total", "messages delivered twice by fault injection"),
		delayed:        o.Counter("transport_fault_delayed_total", "messages delivered late by fault injection"),
		disconnects:    o.Counter("transport_fault_disconnects_total", "forced disconnects tripped by fault injection"),
		acceptFailures: o.Counter("transport_fault_accept_failures_total", "injected Accept failures on fault-wrapped listeners"),
	}
}

// Fault is a shared fault injector: one instance wraps any number of conns
// and listeners, accumulating joint statistics while keeping per-conn
// decision sequences deterministic under the configured seed.
type Fault struct {
	cfg FaultConfig
	seq atomic.Int64

	mu      sync.Mutex // guards metrics swap; counters update lock-free
	metrics faultMetrics
}

// NewFault builds a fault injector from the config, reporting through a
// private registry until Instrument installs a shared one.
func NewFault(cfg FaultConfig) *Fault {
	return &Fault{cfg: cfg, metrics: newFaultMetrics(obs.New())}
}

// Instrument re-points the injector's counters at the given observer so the
// transport_fault_* series appear on a shared registry. Call before wrapping
// conns; counts already accumulated are not carried over.
func (f *Fault) Instrument(o *obs.Observer) {
	f.mu.Lock()
	f.metrics = newFaultMetrics(o)
	f.mu.Unlock()
}

// m snapshots the current instrument set.
func (f *Fault) m() faultMetrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.metrics
}

// Config returns the injector's configuration.
func (f *Fault) Config() FaultConfig { return f.cfg }

// WrapConn wraps c so that sends are subject to drops, duplicates, and
// delays, and the whole connection to a forced disconnect after N messages.
func (f *Fault) WrapConn(c Conn) Conn {
	return &FaultyConn{
		f:     f,
		inner: c,
		rng:   rand.New(rand.NewSource(f.cfg.Seed + f.seq.Add(1))),
	}
}

// WrapListener wraps l so that Accept is subject to injected failures and
// every accepted conn is wrapped with WrapConn.
func (f *Fault) WrapListener(l Listener) Listener {
	return &FaultyListener{
		f:     f,
		inner: l,
		rng:   rand.New(rand.NewSource(f.cfg.Seed + f.seq.Add(1))),
	}
}

// FaultyConn injects faults into the send path of an inner Conn (the
// receive path of the peer's wrapper covers the other direction).
type FaultyConn struct {
	f     *Fault
	inner Conn

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	msgs    atomic.Int64
	tripped atomic.Bool
	once    sync.Once
}

// roll draws fault decisions for one message under the conn's rng.
func (c *FaultyConn) roll() (drop, dup bool, delay time.Duration) {
	cfg := &c.f.cfg
	c.mu.Lock()
	defer c.mu.Unlock()
	if cfg.DropProb > 0 && c.rng.Float64() < cfg.DropProb {
		drop = true
	}
	if cfg.DupProb > 0 && c.rng.Float64() < cfg.DupProb {
		dup = true
	}
	if cfg.MaxDelay > 0 {
		span := cfg.MaxDelay - cfg.MinDelay
		delay = cfg.MinDelay
		if span > 0 {
			delay += time.Duration(c.rng.Int63n(int64(span)))
		}
	}
	return drop, dup, delay
}

// tick counts one message through the conn and trips the forced disconnect
// when the configured budget is exhausted.
func (c *FaultyConn) tick() bool {
	if c.tripped.Load() {
		return true
	}
	limit := c.f.cfg.DisconnectAfter
	if limit <= 0 {
		c.msgs.Add(1)
		return false
	}
	if c.msgs.Add(1) <= int64(limit) {
		return false
	}
	c.once.Do(func() {
		c.tripped.Store(true)
		c.f.m().disconnects.Inc()
		_ = c.inner.Close()
	})
	return true
}

// Send applies the configured faults to one outgoing message.
func (c *FaultyConn) Send(m Message) error {
	if c.tick() {
		return fmt.Errorf("%w: forced disconnect", ErrClosed)
	}
	c.f.m().sent.Inc()
	drop, dup, delay := c.roll()
	if drop {
		c.f.m().dropped.Inc()
		return nil // silently lost in transit
	}
	copies := 1
	if dup {
		copies = 2
		c.f.m().duplicated.Inc()
	}
	if delay > 0 {
		// The copies leave after Send has returned and the sender may be
		// reusing what the body references: they carry the message as sent.
		frame, err := Binary.AppendEncode(nil, m)
		if err == nil {
			m, err = Binary.Decode(frame)
		}
		if err != nil {
			return err
		}
		c.f.m().delayed.Inc()
		for i := 0; i < copies; i++ {
			time.AfterFunc(delay, func() { _ = c.inner.Send(m) })
		}
		return nil
	}
	var err error
	for i := 0; i < copies; i++ {
		if e := c.inner.Send(m); e != nil {
			err = e
		}
	}
	return err
}

// Recv passes through to the inner conn, charging the message against the
// forced-disconnect budget.
func (c *FaultyConn) Recv() (Message, error) {
	if c.tick() {
		return Message{}, io.EOF
	}
	return c.inner.Recv()
}

// Close closes the inner conn.
func (c *FaultyConn) Close() error { return c.inner.Close() }

// FaultyListener injects accept failures and wraps accepted conns.
type FaultyListener struct {
	f     *Fault
	inner Listener

	mu  sync.Mutex
	rng *rand.Rand
}

// Accept accepts from the inner listener; with AcceptFailProb it closes the
// new conn and reports ErrInjected (a transient failure).
func (l *FaultyListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	fail := l.f.cfg.AcceptFailProb > 0 && l.rng.Float64() < l.f.cfg.AcceptFailProb
	l.mu.Unlock()
	if fail {
		_ = c.Close()
		l.f.m().acceptFailures.Inc()
		return nil, fmt.Errorf("%w: accept failure", ErrInjected)
	}
	return l.f.WrapConn(c), nil
}

// Close closes the inner listener.
func (l *FaultyListener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *FaultyListener) Addr() string { return l.inner.Addr() }
