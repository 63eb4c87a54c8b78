package gossip

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// gossipKept is everything a node keeps of the peer censuses it was given.
type gossipKept struct {
	Hash    uint32
	Pending []durable.RoundRecord
	Records []durable.RoundRecord
}

// gossipOwnershipRun drives a durable two-member node through twelve local
// rounds of peer censuses — both members', then a late one for the round —
// either by calling SubmitPeer or over a conn of the named transport, and
// returns what the node kept. With spoiled set the sender overwrites every
// census it passed as soon as the call returns: the first while its round is
// still pending on the barrier.
func gossipOwnershipRun(t *testing.T, via string, spoiled bool) gossipKept {
	n, err := NewNode(Config{
		Edge: 0, Members: []int{0, 1}, Of: 1, Fold: testFold(t, 2),
		PeerDial: func(int) (transport.Conn, error) { return nil, errors.New("no peers dialed") },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	dir := t.TempDir()
	if err := n.Open(dir); err != nil {
		t.Fatal(err)
	}
	peer := n.SubmitPeer
	if via != "call" {
		var l transport.Listener
		var dial func() (transport.Conn, error)
		if via == "tcp" {
			tl, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l, dial = tl, func() (transport.Conn, error) { return transport.DialTCP(tl.Addr()) }
		} else {
			net := transport.NewInprocNetwork()
			nl, err := net.Listen("node")
			if err != nil {
				t.Fatal(err)
			}
			l, dial = nl, func() (transport.Conn, error) { return net.Dial("node") }
		}
		t.Cleanup(func() { l.Close() })
		go n.Serve(l)
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if via == "codec" {
			conn = spoilingConn{conn}
		}
		peer = func(c transport.Census) error {
			return session.Wrap(conn).Notify(transport.KindCensus, &c, 5*time.Second)
		}
	}
	for round := 0; round < 12; round++ {
		c0, c1, late := counts(0, round), counts(1, round), counts(0, round+3)
		for _, c := range []transport.Census{{Edge: 0, Round: round, Counts: c0}, {Edge: 1, Round: round, Counts: c1}, {Edge: 0, Round: round, Counts: late}} {
			if err := peer(c); err != nil {
				t.Fatal(err)
			}
			if spoiled {
				spoil(c.Counts)
			}
		}
	}
	n.mu.Lock()
	out := gossipKept{Hash: n.fold.Hash()}
	for _, rec := range n.pending {
		copied := rec
		copied.Sorted, copied.Censuses = nil, map[int][]int{}
		for _, c := range rec.Sorted {
			copied.Censuses[c.Edge] = append([]int(nil), c.Counts...)
		}
		out.Pending = append(out.Pending, copied)
	}
	n.mu.Unlock()
	journal, _, err := durable.OpenJournal(crashtest.CopyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if err := journal.Replay(func(rec durable.RoundRecord) error { out.Records = append(out.Records, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// spoil overwrites every count, as a sender reusing its buffers would.
func spoil(counts []int) {
	for k := range counts {
		counts[k] = 1000 + k
	}
}

// spoilingConn spoils every census it sends as soon as Send returns, before
// the ack: by then the frame is encoded and the body is the sender's again.
type spoilingConn struct{ transport.Conn }

func (c spoilingConn) Send(m transport.Message) error {
	err := c.Conn.Send(m)
	switch cs := m.Body.(type) {
	case transport.Census:
		spoil(cs.Counts)
	case *transport.Census:
		spoil(cs.Counts)
	}
	return err
}

// TestCallerKeepsItsCounts: a peer census's sender may overwrite its counts
// as soon as SubmitPeer returns — with the round still pending — and a conn
// may decode its next frame over the last one's: neither the node's fold,
// nor its escalation backlog, nor its journal differs from a run whose
// sender left its counts alone, called directly or over any transport, nor
// when the counts are overwritten the moment the conn's Send returns
// ("codec", the pipe behind a spoilingConn).
func TestCallerKeepsItsCounts(t *testing.T) {
	want := gossipOwnershipRun(t, "call", false)
	for _, via := range []string{"call", "pipe", "codec", "tcp"} {
		t.Run(via, func(t *testing.T) {
			if got := gossipOwnershipRun(t, via, true); !reflect.DeepEqual(got, want) {
				t.Errorf("what the node kept changed with the sender's buffers:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
