package cloud

import (
	"errors"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestWriteAheadReplyFollowsFoldAndFsync holds the fsync of a round's record
// and watches the commit: the fold runs meanwhile (the FDS sweep is counted
// on an observer that needs no server lock), neither submitter is answered
// until the record is durable, and both are once it is — even when the
// fsync fails, which is counted and logged but fails no round. The wait
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
	openHooked(t, srv, t.TempDir(), gate.Hook)
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

// TestDurableCommitAllocs: a round committed through a journal allocates what
// the same round does in memory — starting the record's append and waiting
// for it add nothing.
func TestDurableCommitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	commit := func(durable bool) float64 {
		srv := crashServer(t, 0)
		srv.compactEvery = 0
		if durable {
			if err := srv.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		c0, c1 := testCounts(0, 7, 10)
		batch := transport.CensusBatch{Censuses: []transport.Census{{Edge: 0, Counts: c0}, {Edge: 1, Counts: c1}}}
		round := 0
		return testing.AllocsPerRun(50, func() {
			batch.Round, batch.Censuses[0].Round, batch.Censuses[1].Round = round, round, round
			if _, err := srv.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
			round++
		})
	}
	if mem, dur := commit(false), commit(true); dur != mem {
		t.Errorf("a durable commit allocates %.0f, an in-memory one %.0f: the journal must add none", dur, mem)
	}
}
