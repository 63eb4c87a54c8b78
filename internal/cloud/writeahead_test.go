package cloud

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestWriteAheadReplyFollowsFoldAndFsync holds the fsync of every round's
// record and watches who is answered meanwhile. A full round is answered
// with its fsync still held (round 0); the next round is not, whatever it is,
// until that fsync ends, and a full one then is too (round 1). A degraded
// round waits for its own fsync (round 2) — its fold runs meanwhile (the FDS
// sweep is counted on an observer that needs no server lock) — and is
// answered even when that fsync fails, which is counted and logged, fails no
// round and starts the checkpoint that heals the journal. The full round
// after the failed append waits for its own fsync (round 3), and the one
// after that, every earlier append through, is answered ahead of its fsync
// again (round 4). The wait histogram holds the two rounds that waited.
func TestWriteAheadReplyFollowsFoldAndFsync(t *testing.T) {
	fds, _ := testFDS(t)
	sweeps := obs.New()
	fds.Instrument(sweeps)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	gate := crashtest.NewGate()
	defer srv.Close()
	defer gate.Lift() // a failure with a fsync held must not hang the close
	srv.journal = durable.NewJournal(gate.Hook, 0)
	if err := srv.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	gate.Hold(true)

	submit := func(round int, edges ...int) <-chan error {
		replies := make(chan error, len(edges))
		c0, c1 := testCounts(round, 7-round, 10)
		for _, edge := range edges {
			counts := [][]int{c0, c1}[edge]
			go func() {
				_, err := srv.Submit(transport.Census{Edge: edge, Round: round, Counts: counts})
				replies <- err
			}()
		}
		return replies
	}
	answered := func(round int, replies <-chan error, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case err := <-replies:
				if err != nil {
					t.Fatalf("round %d: submit: %v", round, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a submitter was not answered", round)
			}
		}
		if got := srv.Latest(); got != round {
			t.Fatalf("latest = %d after round %d", got, round)
		}
	}
	unanswered := func(round int, replies <-chan error) {
		t.Helper()
		select {
		case err := <-replies:
			t.Fatalf("round %d: a submitter was answered (%v) with a fsync it waits for still held", round, err)
		case <-time.After(20 * time.Millisecond):
		}
	}

	// Round 0, full: answered while its record's fsync is held.
	r0 := submit(0, 0, 1)
	<-gate.Reached
	answered(0, r0, 2)

	// Round 1, full: not answered until round 0's fsync ends; then answered
	// with its own held.
	r1 := submit(1, 0, 1)
	unanswered(1, r1)
	gate.Release(nil)
	<-gate.Reached
	answered(1, r1, 2)

	// Round 2, degraded by its deadline: folded beside its held fsync, not
	// answered until the fsync ends — here by failing.
	srv.SetRoundDeadline(20 * time.Millisecond)
	r2 := submit(2, 0)
	waitFor(t, func() bool { // the barrier opens with the deadline
		srv.mu.Lock()
		defer srv.mu.Unlock()
		b, ok := srv.eng.Barrier(2)
		return ok && b.Size() == 1
	})
	srv.SetRoundDeadline(0)
	gate.Release(nil) // round 1's, which round 2's completion collects first
	<-gate.Reached
	// The sweep's duration is observed as it ends, so the wait below starts
	// after the fold has run, however slow a -race build is.
	deadline := time.Now().Add(5 * time.Second)
	for sweeps.Histogram("fds_update_duration_seconds", "", nil).Count() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("round 2: the fold never ran beside the held fsync")
		}
		time.Sleep(time.Millisecond)
	}
	unanswered(2, r2)
	gate.Hold(false) // the checkpoint that heals the failure fsyncs too
	gate.Release(errors.New("injected fsync failure"))
	answered(2, r2, 1)

	// Round 3, full, after the failed append: waits for its own fsync.
	gate.Hold(true)
	r3 := submit(3, 0, 1)
	<-gate.Reached
	unanswered(3, r3)
	gate.Release(nil)
	answered(3, r3, 2)

	// Round 4, full, every append before it through: answered ahead of its
	// fsync again.
	r4 := submit(4, 0, 1)
	<-gate.Reached
	answered(4, r4, 2)
	gate.Release(nil)
	srv.mu.Lock()
	srv.settleLocked()
	srv.mu.Unlock()

	if n := metricValue(t, srv.Registry(), "durable_journal_errors_total"); n != 1 {
		t.Errorf("durable_journal_errors_total = %v after one failed fsync, want 1", n)
	}
	for _, p := range srv.Registry().Snapshot() {
		if p.Name == "consensus_durability_wait_seconds" && (p.Count != 2 || p.Sum < 0.04) {
			t.Errorf("consensus_durability_wait_seconds: %d observations summing to %.3fs, want 2 (rounds 2 and 3) and the 40ms they waited out", p.Count, p.Sum)
		}
		if p.Name == "durable_append_duration_seconds" && p.Count != 5 {
			t.Errorf("durable_append_duration_seconds: %d observations, want 5", p.Count)
		}
	}
}

// allocatedBytes is the heap f allocates per call (the least of a few tries,
// so another goroutine's allocation does not count against it).
func allocatedBytes(calls int, f func()) uint64 {
	var ms runtime.MemStats
	best := ^uint64(0)
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		best = min(best, (ms.TotalAlloc-before)/uint64(calls))
	}
	return best
}

// TestDurableCommitAllocs: at M = 1024 with a lag window of 8, a warmed-up
// round committed through a journal allocates no census map, no counts
// storage and no snapshot — the barrier fills a recycled census set, the
// window's outgoing entry is overwritten in place, and the record's append
// reuses the journal's scratch. Any one of those is tens of kilobytes. The
// barrier, its wake channel and its span are reused too, so a commit reads
// 0 bytes; the limit leaves room for one small object.
func TestDurableCommitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const m, limit = 1024, 128
	fds, model := refoldFDS(t, goldenGraph{m: m}, false, 8)
	srv, err := NewServer(fds, game.NewUniformState(m, model.K(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetFixedLag(8)
	srv.journal = durable.NewJournal(nil, math.MaxInt) // no checkpoint
	if err := srv.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	censuses := make([]transport.Census, m)
	for edge := range censuses {
		counts := make([]int, model.K())
		counts[edge%len(counts)] = 10
		censuses[edge] = transport.Census{Edge: edge, Counts: counts}
	}
	round := 0
	commit := func() {
		for i := range censuses {
			censuses[i].Round = round
		}
		if err := srv.ingest(round, censuses); err != nil {
			t.Fatal(err)
		}
		round++
	}
	for round < 16 { // fill the window and the engine's spare sets
		commit()
	}
	got := allocatedBytes(20, commit)
	t.Logf("a steady-state durable commit at M = %d: %d bytes", m, got)
	if got > limit {
		t.Errorf("a steady-state durable commit at M = %d allocates %d bytes, want at most %d", m, got, limit)
	}
}
