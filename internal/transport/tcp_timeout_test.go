package transport

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestTCPRecvTimeout: a TCP conn built with WithTimeout reports ErrTimeout
// when the peer goes silent, instead of blocking forever.
func TestTCPRecvTimeout(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		// Hold the conn open without ever sending.
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Recv()
	}()
	client, err := DialTCP(l.Addr(), WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, err = client.Recv()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv on a silent peer = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestTCPCloseUnblocksRecv: closing our own side of a TCP conn unblocks an
// in-flight Recv with io.EOF (session teardown, not an error).
func TestTCPCloseUnblocksRecv(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Recv()
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Recv block on the socket
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Errorf("Recv after own close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
}

// tcpPair returns the two ends of a loopback TCP conn whose codec declaration
// has already crossed, so neither side's next Recv negotiates.
func tcpPair(t *testing.T) (client, server Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := acceptOne(t, l)
	client, err = DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(mustEncode(t, KindHello, Hello{})); err != nil { // carries the declaration
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	return client, server
}

// forwardingConn is a foreign wrapper: it forwards the three Conn methods and
// nothing else, so RecvTimeout cannot hand it a deadline.
type forwardingConn struct{ inner Conn }

func (f forwardingConn) Send(m Message) error   { return f.inner.Send(m) }
func (f forwardingConn) Recv() (Message, error) { return f.inner.Recv() }
func (f forwardingConn) Close() error           { return f.inner.Close() }

// TestRecvTimeoutExpiry: on every kind of conn — a TCP conn built without
// WithTimeout, the in-process pipe, and a wrapper RecvTimeout must wait on
// from a goroutine, around either ("wrapped", "codec pipe") — a bounded receive that succeeds leaves the next plain
// Recv blocking for as long as it takes, and one that nothing arrives for
// reports ErrTimeout and closes the conn.
func TestRecvTimeoutExpiry(t *testing.T) {
	for name, pair := range map[string]func(*testing.T) (Conn, Conn){
		"tcp":  tcpPair,
		"pipe": func(*testing.T) (Conn, Conn) { return Pipe() },
		"wrapped": func(t *testing.T) (Conn, Conn) {
			a, b := tcpPair(t)
			return forwardingConn{a}, b
		},
		"codec pipe": func(*testing.T) (Conn, Conn) { a, b := Pipe(); return forwardingConn{a}, b },
	} {
		t.Run(name, func(t *testing.T) {
			const bound = 40 * time.Millisecond
			a, b := pair(t)
			defer a.Close()
			defer b.Close()
			ratio := mustEncode(t, KindRatio, Ratio{Round: 3, X: 0.5})
			if err := b.Send(ratio); err != nil {
				t.Fatal(err)
			}
			if m, err := RecvTimeout(a, bound); err != nil || m.Kind != KindRatio {
				t.Fatalf("RecvTimeout with a frame waiting = %s, %v", m.Kind, err)
			}

			// The bound was that call's: a plain Recv outlasts it.
			got := make(chan error, 1)
			go func() {
				_, err := a.Recv()
				got <- err
			}()
			select {
			case err := <-got:
				t.Fatalf("plain Recv after a bounded one returned %v before anything was sent", err)
			case <-time.After(3 * bound):
			}
			if err := b.Send(ratio); err != nil {
				t.Fatal(err)
			}
			if err := <-got; err != nil {
				t.Fatalf("plain Recv after a bounded one: %v", err)
			}

			start := time.Now()
			_, err := RecvTimeout(a, bound)
			if !errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "no message within 40ms") {
				t.Fatalf("RecvTimeout on a silent peer = %v, want ErrTimeout naming the bound", err)
			}
			if elapsed := time.Since(start); elapsed < bound || elapsed > 2*time.Second {
				t.Errorf("expiry took %v, want about %v", elapsed, bound)
			}
			if err := a.Send(ratio); !IsConnError(err) {
				t.Errorf("Send on the timed-out conn = %v, want it closed", err)
			}
		})
	}
}
