package cloud

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// serveVia serves a coordinator on a fresh listener of the named transport
// — "pipe" the in-process pipe, "codec" the same behind a spoilingConn, "tcp"
// loopback TCP — and returns a dialer to it.
func serveVia(t *testing.T, via string, serve func(transport.Listener)) func() transport.Conn {
	t.Helper()
	var (
		l    transport.Listener
		dial func() (transport.Conn, error)
		err  error
	)
	if via == "tcp" {
		if l, err = transport.ListenTCP("127.0.0.1:0"); err == nil {
			addr := l.Addr()
			dial = func() (transport.Conn, error) { return transport.DialTCP(addr) }
		}
	} else {
		net := transport.NewInprocNetwork()
		if l, err = net.Listen("tier"); err == nil {
			dial = func() (transport.Conn, error) { return net.Dial("tier") }
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serve(l)
	return func() transport.Conn {
		c, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if via == "codec" {
			return spoilingConn{c}
		}
		return c
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
	case transport.Digest:
		for _, r := range b.Rounds {
			for _, cs := range r.Censuses {
				spoil(cs.Counts)
			}
		}
	}
	return err
}

// spoil overwrites every count, as a caller reusing its buffers would.
func spoil(counts ...[]int) {
	for _, c := range counts {
		for k := range c {
			c[k] = 1000 + k
		}
	}
}

// keptState is everything a coordinator keeps of the censuses it was given.
type keptState struct {
	Hash       uint32
	Window     []windowEntry
	Records    []durable.RoundRecord
	Checkpoint []byte
}

// ownershipRun drives a durable 2-region coordinator through twelve rounds —
// even ones as a census batch, odd ones as two neighborhoods' digests, each
// followed by a late census for the round — either by calling it or over a
// conn (via), and returns what it kept. With spoiled set the caller
// overwrites every census it passed as soon as the call returns: the first
// digest's while its round is still pending on the barrier.
func ownershipRun(t *testing.T, lag int, via string, spoiled bool) keptState {
	srv := crashServer(t, lag)
	dir := t.TempDir()
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	batch := func(b transport.CensusBatch) error { _, err := srv.SubmitBatch(b); return err }
	one := func(c transport.Census) error { _, err := srv.Submit(c); return err }
	digest := func(d transport.Digest) error { _, err := srv.SubmitDigest(d); return err }
	if via != "call" {
		dial := serveVia(t, via, srv.Serve)
		// Corrections a rewind pushes to the census conn are not what is
		// tested here; digests go on their own conn, which gets none.
		edgeConn, hoodConn, ignore := dial(), dial(), func(transport.Message) error { return nil }
		batch = func(b transport.CensusBatch) error {
			_, err := session.ReportCensusBatch(edgeConn, &b, 5*time.Second, ignore)
			return err
		}
		one = func(c transport.Census) error {
			_, err := session.ReportCensusWith(edgeConn, &c, 5*time.Second, ignore)
			return err
		}
		digest = func(d transport.Digest) error {
			_, err := session.EscalateDigest(hoodConn, d, 5*time.Second)
			return err
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 12; round++ {
		c0, c1 := testCounts(round%8, 7-round%8, 10)
		if round%2 == 0 {
			must(batch(transport.CensusBatch{Round: round, Censuses: []transport.Census{{Edge: 0, Round: round, Counts: c0}, {Edge: 1, Round: round, Counts: c1}}}))
		} else {
			hood := func(h int, counts []int) transport.Digest {
				return transport.Digest{Neighborhood: h, Of: 2, Members: []int{h}, Rounds: []transport.DigestRound{
					{Round: round, Censuses: []transport.Census{{Edge: h, Round: round, Counts: counts}}}}}
			}
			must(digest(hood(0, c0)))
			if spoiled {
				spoil(c0)
			}
			must(digest(hood(1, c1)))
		}
		late, _ := testCounts((round+3)%8, 0, 4)
		must(one(transport.Census{Edge: 0, Round: round, Counts: late}))
		if spoiled {
			spoil(c0, c1, late)
		}
	}
	if err := srv.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	if spares := len(srv.eng.spare); spares > lag+2 {
		t.Errorf("the engine holds %d spare census sets at fixed_lag %d, want at most %d", spares, lag, lag+2)
	}
	srv.mu.Unlock()
	out := keptState{Hash: srv.StateHash(), Window: windowOf(srv)}
	journal, snap, err := durable.OpenJournal(crashtest.CopyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	out.Checkpoint = snap
	must(journal.Replay(func(rec durable.RoundRecord) error { out.Records = append(out.Records, rec); return nil }))
	return out
}

// TestCallerKeepsItsCounts: a caller may overwrite the counts it passed to
// Submit, SubmitBatch or SubmitDigest as soon as the call returns — even
// while the round is still pending — and a conn may decode its next frame
// over the last one's: no lag-window entry, journal record, checkpoint or
// state hash differs from a run whose caller left its counts alone, with or
// without a window, called directly or over any transport, nor when the
// counts are overwritten the moment the conn's Send returns ("codec").
func TestCallerKeepsItsCounts(t *testing.T) {
	for _, lag := range []int{0, 8} {
		want := ownershipRun(t, lag, "call", false)
		for _, via := range []string{"call", "pipe", "codec", "tcp"} {
			t.Run(fmt.Sprintf("lag=%d/%s", lag, via), func(t *testing.T) {
				if got := ownershipRun(t, lag, via, true); !reflect.DeepEqual(got, want) {
					t.Errorf("what the coordinator kept changed with the caller's buffers:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestRingKeepsCheckpointedSnapshot holds a background checkpoint before it
// prepares its spare — its snapshot, encoded at capture, is the oldest
// lag-window entry's, the one the ring reuses next — while twice the window's
// depth of rounds commits, then lets it go. What it wrote must be the
// lossless twin's state at its round, and a server opened on the directory
// must recover the twin's window.
func TestRingKeepsCheckpointedSnapshot(t *testing.T) {
	const lag, cadence = 4, 10
	twin := crashServer(t, lag)
	var states []*game.State
	for round := 0; round < cadence+2*lag; round++ {
		crashRound(t, twin, round)
		states = append(states, twin.State())
	}

	srv := crashServer(t, lag)
	dir := t.TempDir()
	gate := crashtest.NewGate()
	gate.Step = "create journal.00000002.wal"
	srv.journal = durable.NewJournal(gate.Hook, cadence)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	gate.Hold(true)
	for round := 0; round < cadence; round++ {
		crashRound(t, srv, round)
	}
	// Round cadence-1 was answered ahead of its record's fsync; collecting
	// its append, as the next round's completion would, starts the
	// checkpoint, whose background waits.
	srv.mu.Lock()
	srv.settleLocked()
	srv.mu.Unlock()
	<-gate.Reached
	for round := cadence; round < cadence+2*lag; round++ {
		crashRound(t, srv, round)
	}
	gate.Hold(false)
	gate.Release(nil)
	if err := srv.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}

	journal, snap, err := durable.OpenJournal(crashtest.CopyDir(t, dir))
	if err != nil || snap == nil {
		t.Fatalf("loading the held checkpoint: %v", err)
	}
	journal.Close()
	cp, err := durable.DecodeCheckpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	if want := cadence - 1 - lag; cp.Round != want {
		t.Fatalf("the checkpoint is of round %d, want %d: the state before the oldest window entry", cp.Round, want)
	}
	if !reflect.DeepEqual(cp.State, states[cp.Round]) {
		t.Errorf("the checkpoint of round %d holds a state the twin never had at it:\n got %+v\nwant %+v", cp.Round, cp.State, states[cp.Round])
	}

	recovered := crashServer(t, lag)
	if err := recovered.Open(crashtest.CopyDir(t, dir)); err != nil {
		t.Fatal(err)
	}
	if got, want := recovered.StateHash(), twin.StateHash(); got != want {
		t.Errorf("recovered hash %08x, twin %08x", got, want)
	}
	if got, want := windowOf(recovered), windowOf(twin); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered window differs from the twin's:\n got %+v\nwant %+v", got, want)
	}
}
