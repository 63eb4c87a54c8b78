package session

import (
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/transport"
)

// tcpPair returns the two ends of a warmed loopback TCP conn.
func tcpPair(t *testing.T) (client, server transport.Conn) {
	t.Helper()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			conn = nil
		}
		accepted <- conn
	}()
	if client, err = transport.DialTCP(l.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.Send(transport.Message{Kind: transport.KindHello, Body: &transport.Hello{}}); err != nil {
		t.Fatal(err) // carries the codec declaration
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { server.Close() })
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	return client, server
}

// TestAckAndNotifyAllocs pins a gossip census exchange at zero over a warmed
// TCP conn: a success ack is the one shared body, Notify decodes the ack on
// its stack, the session view stays on the caller's stack, and the census is
// the caller's own body. One goroutine plays
// both ends, acking first — the ack waits in the socket for Notify to read.
func TestAckAndNotifyAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	client, server := tcpPair(t)
	acker := Wrap(server)
	census := &transport.Census{Edge: 3, Round: 117, Counts: []int{12, 40, 7}}
	allocs := testing.AllocsPerRun(200, func() {
		if err := acker.Ack(nil); err != nil {
			t.Fatal(err)
		}
		if err := Wrap(client).Notify(transport.KindCensus, census, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if m, err := server.Recv(); err != nil || m.Kind != transport.KindCensus {
			t.Fatalf("Recv = %s, %v", m.Kind, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Ack(nil) + Notify(census) + Recv: %.1f allocs/op, want 0", allocs)
	}
}

// TestReportCensusAllocs pins an edge's census exchange at zero over a warmed
// TCP conn: the census is the caller's body, sent by pointer, and the ratio
// and the stale-reply check stay on ReportCensusWith's stack. One goroutine
// plays both ends, answering first — the ratio waits in the socket.
func TestReportCensusAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	client, server := tcpPair(t)
	census := &transport.Census{Edge: 3, Round: 117, Counts: []int{12, 40, 7}}
	ratio := &transport.Ratio{X: 0.5}
	allocs := testing.AllocsPerRun(200, func() {
		census.Round++
		ratio.Round = census.Round + 1
		if err := server.Send(transport.Message{Kind: transport.KindRatio, Body: ratio}); err != nil {
			t.Fatal(err)
		}
		if x, err := ReportCensusWith(client, census, 30*time.Second, nil); err != nil || x != 0.5 {
			t.Fatalf("ReportCensusWith = %v, %v", x, err)
		}
		if m, err := server.Recv(); err != nil || m.Kind != transport.KindCensus {
			t.Fatalf("Recv = %s, %v", m.Kind, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Send(ratio) + ReportCensusWith + Recv: %.1f allocs/op, want 0", allocs)
	}
}
