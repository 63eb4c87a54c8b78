package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Accept-loop backoff bounds: the first non-injected transient failure
// retries after acceptBackoffMin, doubling up to acceptBackoffMax.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// AcceptLoop runs l.Accept until the listener is torn down, handing every
// connection to handle (which must not block; spawn per-connection work in
// a goroutine). Injected fault failures retry immediately; any other
// transient error retries with bounded exponential backoff, so one bad
// accept — a transient EMFILE, a half-open TCP reset — cannot permanently
// kill a server's accept loop. The loop returns only on listener teardown
// (ErrClosed, net.ErrClosed, io.EOF) or when stop closes; stop may be nil.
func AcceptLoop(l Listener, stop <-chan struct{}, handle func(Conn)) {
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err == nil {
			backoff = 0
			handle(conn)
			continue
		}
		if errors.Is(err, ErrClosed) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
			return
		}
		if errors.Is(err, ErrInjected) {
			continue
		}
		if backoff == 0 {
			backoff = acceptBackoffMin
		} else if backoff < acceptBackoffMax {
			backoff *= 2
		}
		t := time.NewTimer(backoff)
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// Acceptor is the listener/connection lifecycle every serving component
// shares: the accept loop, the set of live connections, background work
// tied to the component's lifetime, and the close-once teardown that stops
// all three and waits for them.
type Acceptor struct {
	mu     sync.Mutex
	conns  map[Conn]struct{}
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// NewAcceptor returns an open acceptor with no connections.
func NewAcceptor() *Acceptor {
	return &Acceptor{conns: make(map[Conn]struct{}), closed: make(chan struct{})}
}

// Closed is closed when Close begins.
func (a *Acceptor) Closed() <-chan struct{} { return a.closed }

// Serve accepts connections until the listener is torn down (see AcceptLoop
// for the retry policy), running handle for each on its own goroutine. Once
// the acceptor is closed, a listener its owner has not torn down yet keeps
// being drained: each connection is accepted and dropped at once, which is
// how a peer still dialing learns the component is gone instead of queueing
// behind a listener nobody reads. It blocks; run it in a goroutine.
func (a *Acceptor) Serve(l Listener, handle func(Conn)) {
	AcceptLoop(l, a.closed, func(conn Conn) {
		if !a.start(conn, func() { handle(conn) }) {
			conn.Close()
		}
	})
}

// Go runs fn on a goroutine Close waits for. It reports false, without
// running fn, once the acceptor is closed.
func (a *Acceptor) Go(fn func()) bool { return a.start(nil, fn) }

// start runs fn on a tracked goroutine, holding conn (when non-nil) in the
// live set for fn's duration. The closed check, the set insert and the
// WaitGroup add share one critical section with Close's sweep, so a
// connection is either refused here or closed there.
func (a *Acceptor) start(conn Conn, fn func()) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case <-a.closed:
		return false
	default:
	}
	if conn != nil {
		a.conns[conn] = struct{}{}
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		fn()
		if conn != nil {
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}
	}()
	return true
}

// Close marks the acceptor closed, runs teardown (the owner fails whatever
// its handlers may be blocked on), closes every live connection, and waits
// for handlers and background work to drain. Only the first call tears
// down; every call waits.
func (a *Acceptor) Close(teardown func()) {
	a.once.Do(func() {
		a.mu.Lock()
		close(a.closed)
		a.mu.Unlock()
		teardown()
		a.mu.Lock()
		for conn := range a.conns {
			conn.Close()
		}
		a.mu.Unlock()
	})
	a.wg.Wait()
}
