package shard

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// shardKept is everything a shard tier keeps of the censuses it was given:
// the aggregator's hash, the shard's record to re-forward and its journal.
type shardKept struct {
	Hash    uint32
	LastRec durable.RoundRecord
	Records []durable.RoundRecord
}

// shardOwnershipRun drives a durable shard over an aggregator with the given
// lag window through twelve rounds, each a census batch followed by a late
// census for the round, either by calling the shard or over a conn of the
// named transport, and returns what the tier kept. With spoiled set the
// caller overwrites every census it passed as soon as the call returns.
func shardOwnershipRun(t *testing.T, lag int, via string, spoiled bool) shardKept {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	t.Cleanup(agg.Close)
	agg.SetFixedLag(lag)
	startAggregator(t, net, "agg", agg)
	c := newTestCoordinator(t, net, "agg", 0)
	dir := t.TempDir()
	if err := c.Open(dir); err != nil {
		t.Fatal(err)
	}
	batch := func(b transport.CensusBatch) error { return c.ingest(b.Round, b.Censuses) }
	one := func(cs transport.Census) error { return c.ingest(cs.Round, []transport.Census{cs}) }
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
			down := transport.NewInprocNetwork()
			nl, err := down.Listen("shard")
			if err != nil {
				t.Fatal(err)
			}
			l, dial = nl, func() (transport.Conn, error) { return down.Dial("shard") }
		}
		t.Cleanup(func() { l.Close() })
		go c.Serve(l)
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if via == "codec" {
			conn = spoilingConn{conn}
		}
		ignore := func(transport.Message) error { return nil } // corrections a rewind pushes
		batch = func(b transport.CensusBatch) error {
			_, err := session.ReportCensusBatch(conn, &b, 5*time.Second, ignore)
			return err
		}
		one = func(cs transport.Census) error {
			_, err := session.ReportCensusWith(conn, &cs, 5*time.Second, ignore)
			return err
		}
	}
	for round := 0; round < 12; round++ {
		counts := crashCounts(round)
		if err := batch(transport.CensusBatch{Round: round, Censuses: []transport.Census{
			{Edge: 0, Round: round, Counts: counts[0]}, {Edge: 1, Round: round, Counts: counts[1]}}}); err != nil {
			t.Fatal(err)
		}
		late := crashCounts(round + 3)[0]
		if err := one(transport.Census{Edge: 0, Round: round, Counts: late}); err != nil {
			t.Fatal(err)
		}
		if spoiled {
			spoil(counts[0], counts[1], late)
		}
	}
	c.mu.Lock()
	out := shardKept{Hash: agg.StateHash(), LastRec: c.lastRec}
	out.LastRec.Sorted, out.LastRec.Censuses = nil, censusMap(c.lastRec.Sorted)
	c.mu.Unlock()
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

// spoil overwrites every count, as a caller reusing its buffers would.
func spoil(counts ...[]int) {
	for _, c := range counts {
		for k := range c {
			c[k] = 1000 + k
		}
	}
}

// spoilingConn spoils every census it sends as soon as Send returns, before
// the reply: by then the frame is encoded and the body is the sender's again.
type spoilingConn struct{ transport.Conn }

func (c spoilingConn) Send(m transport.Message) error {
	err := c.Conn.Send(m)
	switch b := m.Body.(type) {
	case transport.Census:
		spoil(b.Counts)
	case *transport.Census:
		spoil(b.Counts)
	case transport.CensusBatch:
		for _, cs := range b.Censuses {
			spoil(cs.Counts)
		}
	case *transport.CensusBatch:
		for _, cs := range b.Censuses {
			spoil(cs.Counts)
		}
	}
	return err
}

// TestCallerKeepsItsCounts: a caller may overwrite the counts it passed to
// the shard's ingest as soon as the call returns, and a conn may decode
// its next frame over the last one's: neither the record the shard keeps to
// re-forward, nor its journal, nor the aggregator's hash differs from a run
// whose caller left its counts alone — with the aggregator's lag window or
// without, called directly or over any transport, nor when the counts are
// overwritten the moment the conn's Send returns ("codec", the pipe behind a
// spoilingConn).
func TestCallerKeepsItsCounts(t *testing.T) {
	for _, lag := range []int{0, 8} {
		want := shardOwnershipRun(t, lag, "call", false)
		for _, via := range []string{"call", "pipe", "codec", "tcp"} {
			t.Run(fmt.Sprintf("lag=%d/%s", lag, via), func(t *testing.T) {
				if got := shardOwnershipRun(t, lag, via, true); !reflect.DeepEqual(got, want) {
					t.Errorf("what the tier kept changed with the caller's buffers:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
