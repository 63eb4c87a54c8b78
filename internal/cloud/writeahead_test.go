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

// TestWriteAheadReplyFollowsFoldAndFsync holds the fsync of a round's record
// and watches the commit: the fold runs meanwhile (the FDS sweep is counted
// on an observer that needs no server lock), neither submitter is answered
// until the record is durable, and both are once it is — even when the
// fsync fails, which is counted and logged, fails no round and starts the
// checkpoint that heals the journal. The wait
// histogram holds the time the folded round then spent blocked.
func TestWriteAheadReplyFollowsFoldAndFsync(t *testing.T) {
	fds, _ := testFDS(t)
	sweeps := obs.New()
	fds.Instrument(sweeps)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := crashtest.NewGate()
	srv.journal = durable.NewJournal(gate.Hook, 0)
	if err := srv.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	gate.Hold(true)

	for round, syncErr := range []error{nil, errors.New("injected fsync failure")} {
		c0, c1 := testCounts(round, 7-round, 10)
		replies := make(chan error, 2)
		for edge, counts := range [][]int{c0, c1} {
			edge, counts := edge, counts
			go func() {
				_, err := srv.Submit(transport.Census{Edge: edge, Round: round, Counts: counts})
				replies <- err
			}()
		}
		<-gate.Reached
		// The sweep's duration is observed as it ends, so the wait below
		// starts after the fold has run, however slow a -race build is.
		deadline := time.Now().Add(5 * time.Second)
		for sweeps.Histogram("fds_update_duration_seconds", "", nil).Count() < int64(round+1) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the fold never ran beside the held fsync", round)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case err := <-replies:
			t.Fatalf("round %d: a submitter was answered (%v) with the record's fsync still held", round, err)
		case <-time.After(20 * time.Millisecond):
		}
		if syncErr != nil {
			gate.Hold(false) // the checkpoint that heals the failure fsyncs too
		}
		gate.Release(syncErr)
		for i := 0; i < 2; i++ {
			if err := <-replies; err != nil {
				t.Fatalf("round %d: submit after the fsync was released: %v", round, err)
			}
		}
		if got := srv.Latest(); got != round {
			t.Fatalf("latest = %d after round %d", got, round)
		}
	}
	if n := metricValue(t, srv.Registry(), "durable_journal_errors_total"); n != 1 {
		t.Errorf("durable_journal_errors_total = %v after one failed fsync, want 1", n)
	}
	for _, p := range srv.Registry().Snapshot() {
		if p.Name == "consensus_durability_wait_seconds" && (p.Count != 2 || p.Sum < 0.04) {
			t.Errorf("consensus_durability_wait_seconds: %d observations summing to %.3fs, want 2 and the 40ms the folds waited out", p.Count, p.Sum)
		}
		if p.Name == "durable_append_duration_seconds" && p.Count != 2 {
			t.Errorf("durable_append_duration_seconds: %d observations, want 2", p.Count)
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
