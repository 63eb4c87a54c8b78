package shard

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/transport"
)

// censusMap is a census list as a map of copied counts: how the tests compare
// what a shard kept.
func censusMap(list []transport.Census) map[int][]int {
	m := make(map[int][]int, len(list))
	for _, c := range list {
		m[c.Edge] = slices.Clone(c.Counts)
	}
	return m
}

// crashCounts is a deterministic census pair for a round.
func crashCounts(round int) map[int][]int {
	c0, c1 := make([]int, 8), make([]int, 8)
	c0[round%8], c1[7-round%8] = 10, 10
	return map[int][]int{0: c0, 1: c1}
}

// TestCheckpointCrashPoints is the shard coordinator's crash-point matrix
// (see the cloud's): the state directory as it stands before each step of a
// background checkpoint, with a torn tail, and in the parent's one-file
// layout. Open must recover the watermark and the newest batch every time,
// and re-forward that batch upstream, where it is absorbed as a duplicate.
// The cadence round itself is the commit-path pin: its append fsyncs the
// journal once, and the goroutine that did touches the disk no further.
func TestCheckpointCrashPoints(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	agg.SetFixedLag(8)
	startAggregator(t, net, "agg", agg)

	c := newTestCoordinator(t, net, "agg", 0)
	dir := t.TempDir()
	rec := crashtest.New(t, dir)
	c.journal = durable.NewJournal(rec.Hook)
	if err := c.Open(dir); err != nil {
		t.Fatal(err)
	}

	// Two checkpoints, at rounds 31 and 63; the second has a snapshot to
	// replace and, the newest batch having moved on, journal.wal to unlink.
	last := 2*durable.CompactEvery - 1
	for round := 0; round < last; round++ {
		runRound(t, c, round, crashCounts(round))
	}
	if err := c.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	rec.Arm()
	runRound(t, c, last, crashCounts(last))
	if err := c.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	crashes := rec.Crashes()
	rec.Committer(t)
	var steps []string
	for _, cr := range crashes {
		steps = append(steps, cr.Step)
	}
	want := []string{
		"before sync journal.00000001.wal", // the write-ahead record, nobody answered yet
		"before create checkpoint.snap.tmp", "before sync checkpoint.snap.tmp", "before rename checkpoint.snap",
		"before syncdir .", "before remove journal.wal", "before create journal.00000003.wal", "before syncdir .",
		"after the last step",
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("background checkpoint steps = %q, want %q", steps, want)
	}
	final := crashes[len(crashes)-1].Dir
	torn := crashtest.CopyDir(t, final)
	crashtest.TearTail(t, torn)
	crashes = append(crashes,
		crashtest.Crash{Step: "torn tail in the newest segment", Dir: torn},
		crashtest.Crash{Step: "parent layout", Dir: crashtest.ParentLayout(t, final)})

	hash := agg.StateHash()
	for _, cr := range crashes {
		c2 := newTestCoordinator(t, net, "agg", 0)
		dups := metricValue(t, agg.Registry(), "consensus_duplicate_censuses_total")
		if err := c2.Open(cr.Dir); err != nil {
			t.Errorf("%s: Open: %v", cr.Step, err)
			continue
		}
		if got := c2.Latest(); got != last {
			t.Errorf("%s: recovered watermark = %d, want %d", cr.Step, got, last)
		}
		c2.mu.Lock()
		lastRec := c2.lastRec
		c2.mu.Unlock()
		if lastRec.Round != last || !reflect.DeepEqual(censusMap(lastRec.Sorted), crashCounts(last)) {
			t.Errorf("%s: recovered newest batch = %+v, want round %d's", cr.Step, lastRec, last)
		}
		// The re-forward reaches the aggregator, which has the batch already.
		deadline := time.Now().Add(5 * time.Second)
		for metricValue(t, agg.Registry(), "consensus_duplicate_censuses_total") < dups+2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := metricValue(t, agg.Registry(), "consensus_duplicate_censuses_total"); got < dups+2 {
			t.Errorf("%s: the recovered batch never reached the aggregator (duplicates %v -> %v)", cr.Step, dups, got)
		}
		if agg.StateHash() != hash {
			t.Errorf("%s: the re-forwarded batch changed the aggregator's fold", cr.Step)
		}
		c2.Close()
	}
}
