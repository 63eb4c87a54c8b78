package shard

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/israce"
	"repro/internal/transport"
)

// submitAll submits one round's censuses to c, each from its own goroutine,
// and returns where their outcomes arrive.
func submitAll(c *Coordinator, round int, counts map[int][]int) <-chan error {
	replies := make(chan error, len(counts))
	for edge, cs := range counts {
		edge, cs := edge, cs
		go func() {
			_, err := submit(c, transport.Census{Edge: edge, Round: round, Counts: cs})
			replies <- err
		}()
	}
	return replies
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWriteAheadReplyFollowsAnswerAndFsync holds the fsync of a shard round's
// record: the forward goes out beside it and the aggregator folds and answers
// the round, yet no edge is answered until the record is durable, and both
// are once it is. The wait histogram holds the time the answered forward
// then spent blocked.
func TestWriteAheadReplyFollowsAnswerAndFsync(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	startAggregator(t, net, "agg", agg)
	c := newTestCoordinator(t, net, "agg", 0)
	gate := crashtest.NewGate()
	c.journal = durable.NewJournal(gate.Hook, 0)
	if err := c.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	gate.Hold(true)

	counts := crashCounts(0)
	replies := submitAll(c, 0, counts)
	<-gate.Reached
	waitFor(t, "the aggregator to fold the forwarded round", func() bool { return agg.Latest() == 0 })
	select {
	case err := <-replies:
		t.Fatalf("an edge was answered (%v) with the record's fsync still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := c.Latest(); got != -1 {
		t.Fatalf("shard watermark = %d with the record's fsync still held, want -1", got)
	}
	gate.Release(nil)
	for range counts {
		if err := <-replies; err != nil {
			t.Fatalf("submit after the fsync was released: %v", err)
		}
	}
	for _, p := range c.Registry().Snapshot() {
		if p.Name == "shard_durability_wait_seconds" && (p.Count != 1 || p.Sum < 0.02) {
			t.Errorf("shard_durability_wait_seconds: %d observations summing to %.3fs, want 1 and the 20ms the answer waited out", p.Count, p.Sum)
		}
	}
}

// TestWriteAheadCrashBetweenForwardAndRecord kills a shard in each of the two
// windows the overlap opens between a round's forward and its record, restarts
// it on what the disk held, and lets the edges — never answered — re-submit.
// Either way the tier ends hash-equal to a lossless twin, the edges are
// answered the twin's ratios, and the aggregator folded no round twice.
func TestWriteAheadCrashBetweenForwardAndRecord(t *testing.T) {
	const last = 3
	for _, window := range []string{"forward delivered, record not durable", "record durable, forward not delivered"} {
		t.Run(window, func(t *testing.T) {
			net := transport.NewInprocNetwork()
			agg := newAggregator(t)
			defer agg.Close()
			agg.SetFixedLag(8)
			startAggregator(t, net, "agg", agg)
			twin := newAggregator(t)
			defer twin.Close()
			var want map[int]float64
			for round := 0; round <= last; round++ {
				want = runDirectRound(t, twin, round, crashCounts(round))
			}

			dir, counts := t.TempDir(), crashCounts(last)
			gate := crashtest.NewGate()
			c := newTestCoordinator(t, net, "agg", 0)
			c.journal = durable.NewJournal(gate.Hook, 0)
			if err := c.Open(dir); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < last; round++ {
				runRound(t, c, round, crashCounts(round))
			}
			var killed string
			if window == "forward delivered, record not durable" {
				// The disk as it stood before the round; the forward goes out
				// and is answered beside an fsync that never completes.
				killed = crashtest.CopyDir(t, dir)
				gate.Hold(true)
				replies := submitAll(c, last, counts)
				<-gate.Reached
				waitFor(t, "the aggregator to fold the forwarded round", func() bool { return agg.Latest() == last })
				gate.Hold(false) // the checkpoint that heals the failure fsyncs too
				gate.Release(errors.New("killed before the fsync returned"))
				for range counts {
					<-replies // a killed shard's edges see their connection drop instead
				}
				c.Close()
			} else {
				// A shard cut off from the aggregator: the record lands, the
				// forward fails after its retries, the edges get an error.
				c.Close()
				cut := newTestCoordinator(t, net, "nowhere", 0)
				if err := cut.Open(dir); err != nil {
					t.Fatal(err)
				}
				replies := submitAll(cut, last, counts)
				for range counts {
					if err := <-replies; err == nil {
						t.Fatal("an edge was answered by a shard that never reached the aggregator")
					}
				}
				cut.Close()
				killed = crashtest.CopyDir(t, dir)
				if got := agg.Latest(); got != last-1 {
					t.Fatalf("aggregator latest = %d before the restart, want %d", got, last-1)
				}
			}

			c2 := newTestCoordinator(t, net, "agg", 0)
			if err := c2.Open(killed); err != nil {
				t.Fatal(err)
			}
			// Open re-forwards the newest journaled batch: round last-1 as a
			// duplicate in the first window, round last itself in the second.
			waitFor(t, "the aggregator to hold the last round", func() bool { return agg.Latest() == last })
			got := runRound(t, c2, last, counts)
			for edge, x := range want {
				if got[edge] != x {
					t.Errorf("edge %d answered %v after the restart, the twin's %v", edge, got[edge], x)
				}
			}
			if got, want := agg.StateHash(), twin.StateHash(); got != want {
				t.Errorf("aggregator hash %08x after the restart, lossless twin %08x", got, want)
			}
			if n := metricValue(t, agg.Registry(), "consensus_rounds_total"); n != last+1 {
				t.Errorf("consensus_rounds_total = %v, want %d: a round was folded twice, or never", n, last+1)
			}
			if n := metricValue(t, agg.Registry(), "consensus_rewinds_total"); n != 0 {
				t.Errorf("consensus_rewinds_total = %v: an equal census re-forwarded after the restart re-folded", n)
			}
		})
	}
}

// TestDurableCommitAllocs: a warmed-up shard round of 1024 regions committed
// through a journal allocates no census map, no counts storage and no
// forward list: the barrier fills the census set the record it superseded
// as the one to re-forward gave back. Any one of those is tens of
// kilobytes; what is left (~1,400 bytes) is the forward's closure and the
// failed forward's error: the barrier, its span and the kept record are
// reused.
func TestDurableCommitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const m, limit = 1024, 2048
	regions := make([]int, m)
	batch := transport.CensusBatch{Censuses: make([]transport.Census, m)}
	for edge := range regions {
		regions[edge] = edge
		counts := make([]int, 8)
		counts[edge%8] = 10
		batch.Censuses[edge] = transport.Census{Edge: edge, Counts: counts}
	}
	upstream := batchLink(transport.NewInprocNetwork(), 0, "nowhere")
	c, err := NewCoordinator(Config{ID: 0, Regions: regions, K: 8, Upstream: upstream})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	round := 0
	commit := func() {
		batch.Round = round
		for i := range batch.Censuses {
			batch.Censuses[i].Round = round
		}
		_ = c.ingest(batch.Round, batch.Censuses) // the forward fails: the commit up to it is what is counted
		round++
	}
	for round < 4 {
		commit()
	}
	got := allocatedBytes(10, commit)
	t.Logf("a steady-state durable shard commit of %d regions: %d bytes", m, got)
	if got > limit {
		t.Errorf("a steady-state durable shard commit of %d regions allocates %d bytes, want at most %d", m, got, limit)
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
