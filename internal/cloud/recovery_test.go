package cloud

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

// metricValue reads one counter or gauge out of a registry snapshot.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	t.Fatalf("metric %s not in registry snapshot", name)
	return 0
}

// runFullRound drives both regions through one barrier round.
func runFullRound(t *testing.T, srv *Server, round int, counts0, counts1 []int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	var err0 error
	go func() {
		defer wg.Done()
		_, err0 = srv.Submit(transport.Census{Edge: 0, Round: round, Counts: counts0})
	}()
	_, err1 := srv.Submit(transport.Census{Edge: 1, Round: round, Counts: counts1})
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("round %d submit errors: %v / %v", round, err0, err1)
	}
}

func testCounts(k0, k1, n int) ([]int, []int) {
	c0 := make([]int, 8)
	c0[k0] = n
	c1 := make([]int, 8)
	c1[k1] = n
	return c0, c1
}

// A kill -9'd coordinator restarted from its state directory must resume at
// latest+1 with a bit-identical game state — including a checkpoint whose
// last round completed degraded — and answer late censuses for recovered
// rounds from the recovered state instead of erroring.
func TestRecoveryResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	fds1, _ := testFDS(t)
	srv1, err := NewServer(fds1, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := metricValue(t, srv1.Registry(), "durable_recoveries_total"); n != 0 {
		t.Fatalf("fresh state dir counted %v recoveries", n)
	}

	c0, c1 := testCounts(0, 7, 10)
	for round := 0; round < 3; round++ {
		runFullRound(t, srv1, round, c0, c1)
	}
	// Round 3 completes degraded: only region 0 reports, the deadline fires.
	srv1.SetRoundDeadline(30 * time.Millisecond)
	if _, err := srv1.Submit(transport.Census{Edge: 0, Round: 3, Counts: c0}); err != nil {
		t.Fatalf("degraded round: %v", err)
	}

	preState := srv1.State()
	preLatest := srv1.Latest()
	if preLatest != 3 {
		t.Fatalf("latest before crash = %d, want 3", preLatest)
	}
	srv1.Close() // kill -9: no drain, no final checkpoint

	fds2, _ := testFDS(t)
	srv2, err := NewServer(fds2, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Open(dir); err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if got := srv2.Latest(); got != preLatest {
		t.Fatalf("recovered latest = %d, want %d", got, preLatest)
	}
	if !reflect.DeepEqual(srv2.State(), preState) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", srv2.State(), preState)
	}
	reg := srv2.Registry()
	if n := metricValue(t, reg, "durable_recoveries_total"); n < 1 {
		t.Fatalf("durable_recoveries_total = %v, want >= 1", n)
	}
	if n := metricValue(t, reg, "journal_replay_records_total"); n != 4 {
		t.Fatalf("journal_replay_records_total = %v, want 4", n)
	}

	// A late census for a recovered round gets the recovered ratio.
	lateX, err := srv2.Submit(transport.Census{Edge: 1, Round: 2, Counts: c1})
	if err != nil {
		t.Fatalf("late census during recovery: %v", err)
	}
	if lateX != preState.X[1] {
		t.Fatalf("late census ratio = %v, want recovered %v", lateX, preState.X[1])
	}

	// The next barrier is latest+1 and the trajectory continues: one more
	// full round on the recovered server matches the same round run on an
	// uninterrupted twin.
	runFullRound(t, srv2, preLatest+1, c0, c1)
	if got := srv2.Latest(); got != preLatest+1 {
		t.Fatalf("latest after resumed round = %d, want %d", got, preLatest+1)
	}

	fds3, _ := testFDS(t)
	twin, err := NewServer(fds3, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for round := 0; round < 3; round++ {
		runFullRound(t, twin, round, c0, c1)
	}
	twin.SetRoundDeadline(30 * time.Millisecond)
	if _, err := twin.Submit(transport.Census{Edge: 0, Round: 3, Counts: c0}); err != nil {
		t.Fatal(err)
	}
	twin.SetRoundDeadline(0)
	runFullRound(t, twin, 4, c0, c1)
	if !reflect.DeepEqual(srv2.State(), twin.State()) {
		t.Fatalf("post-recovery trajectory diverged from uninterrupted run:\n got %+v\nwant %+v",
			srv2.State(), twin.State())
	}
}

// A crash between checkpoint rename and journal truncate leaves records the
// checkpoint already covers; recovery must skip them instead of applying
// them twice.
func TestRecoverySkipsCheckpointedJournalRecords(t *testing.T) {
	dir := t.TempDir()

	// Build the crash artifact directly: a checkpoint at round 2 plus a
	// journal still holding rounds 1-3.
	store, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckptState := game.NewUniformState(2, 8, 0.5)
	ckptState.X[0], ckptState.X[1] = 0.25, 0.75
	snap, err := durable.EncodeCheckpoint(durable.Checkpoint{
		Round: 2,
		State: ckptState,
		FDS:   policy.FDSMemory{LastShortfall: []float64{0.1, 0.2}, StallRounds: []int{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	c0, c1 := testCounts(0, 7, 10)
	for round := 1; round <= 3; round++ {
		rec, err := durable.EncodeRound(durable.RoundRecord{
			Round:    round,
			Censuses: map[int][]int{0: c0, 1: c1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := srv.Latest(); got != 3 {
		t.Fatalf("latest = %d, want 3 (checkpoint round 2 + replayed round 3)", got)
	}
	if n := metricValue(t, srv.Registry(), "journal_replay_records_total"); n != 1 {
		t.Fatalf("journal_replay_records_total = %v, want 1 (rounds 1-2 skipped)", n)
	}
}

// Compaction must not change what recovery reconstructs — only how much
// journal it reads.
func TestCompactionPreservesRecovery(t *testing.T) {
	dir := t.TempDir()
	fds1, _ := testFDS(t)
	srv1, err := NewServer(fds1, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	srv1.compactEvery = 2
	if err := srv1.Open(dir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := testCounts(1, 6, 7)
	for round := 0; round < 5; round++ {
		runFullRound(t, srv1, round, c0, c1)
	}
	preState := srv1.State()
	if n := metricValue(t, srv1.Registry(), "checkpoint_bytes"); n <= 0 {
		t.Fatalf("checkpoint_bytes = %v after compaction, want > 0", n)
	}
	srv1.Close()

	fds2, _ := testFDS(t)
	srv2, err := NewServer(fds2, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Latest(); got != 4 {
		t.Fatalf("latest = %d, want 4", got)
	}
	if !reflect.DeepEqual(srv2.State(), preState) {
		t.Fatalf("state after compacted recovery differs")
	}
	// Rounds 0-3 were folded into the checkpoint; only round 4 replays.
	if n := metricValue(t, srv2.Registry(), "journal_replay_records_total"); n != 1 {
		t.Fatalf("journal_replay_records_total = %v, want 1", n)
	}
}

// Drain completes the pending barrier degraded, checkpoints, and leaves a
// state directory that reopens with an empty journal.
func TestDrainCompletesPendingAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	fds1, _ := testFDS(t)
	srv1, err := NewServer(fds1, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Open(dir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := testCounts(0, 7, 10)
	runFullRound(t, srv1, 0, c0, c1)

	// Leave round 1 half-filled, then drain.
	pending := make(chan error, 1)
	go func() {
		_, err := srv1.Submit(transport.Census{Edge: 0, Round: 1, Counts: c0})
		pending <- err
	}()
	waitFor(t, func() bool {
		srv1.mu.Lock()
		defer srv1.mu.Unlock()
		return srv1.eng.Pending() == 1
	})
	if err := srv1.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-pending; err != nil {
		t.Fatalf("pending submit during drain: %v", err)
	}
	if got := srv1.Latest(); got != 1 {
		t.Fatalf("latest after drain = %d, want 1", got)
	}
	drained := srv1.State()

	store, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := store.Replay(func([]byte) error { return nil }); err != nil || n != 0 {
		t.Fatalf("drain checkpoint left %d journal records to replay (%v), want 0", n, err)
	}
	store.Close()

	fds2, _ := testFDS(t)
	srv2, err := NewServer(fds2, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Latest(); got != 1 {
		t.Fatalf("reopened latest = %d, want 1", got)
	}
	if !reflect.DeepEqual(srv2.State(), drained) {
		t.Fatalf("reopened state differs from drained state")
	}
}

func TestSubmitRejectsMalformedCounts(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, counts := range [][]int{nil, make([]int, 3), make([]int, 9)} {
		_, err := srv.Submit(transport.Census{Edge: 0, Round: 0, Counts: counts})
		if !errors.Is(err, ErrBadCensus) {
			t.Fatalf("Submit with %d counts = %v, want ErrBadCensus", len(counts), err)
		}
	}
	if got := srvCounter(srv, "consensus_decode_failures_total"); got != 3 {
		t.Fatalf("consensus_decode_failures_total = %d, want 3", got)
	}
	// Unknown edges still fail with the unknown-edge error, not ErrBadCensus.
	if _, err := srv.Submit(transport.Census{Edge: 5, Round: 0}); errors.Is(err, ErrBadCensus) || err == nil {
		t.Fatalf("unknown edge error = %v", err)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// A crash inside the lag window must not lose the window: the restarted
// server recovers the corrected (post-rewind) history bit-identically and
// can still rewind the rounds that were buffered when the process died.
func TestRecoveryPreservesRewindWindow(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)

	// Lossless reference for the full five-round trajectory.
	fdsRef, _ := testFDS(t)
	ref, err := NewServer(fdsRef, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for round := 0; round < 5; round++ {
		runFullRound(t, ref, round, c0, c1)
	}

	dir := t.TempDir()
	fds1, _ := testFDS(t)
	srv1, err := NewServer(fds1, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	srv1.SetFixedLag(8)
	srv1.compactEvery = 2 // exercise the retained-window checkpoint path
	if err := srv1.Open(dir); err != nil {
		t.Fatal(err)
	}
	runFullRound(t, srv1, 0, c0, c1)
	// Round 1 completes degraded, then region 1's census arrives late and
	// rewinds it — the corrected round is journaled.
	srv1.SetRoundDeadline(20 * time.Millisecond)
	if _, err := srv1.Submit(transport.Census{Edge: 0, Round: 1, Counts: c0}); err != nil {
		t.Fatal(err)
	}
	srv1.SetRoundDeadline(0)
	if _, err := srv1.Submit(transport.Census{Edge: 1, Round: 1, Counts: c1}); err != nil {
		t.Fatal(err)
	}
	// Killed right here, the journal ends in the rewind's record — the late
	// census alone — and recovery must merge it into the degraded round it
	// buffered: the same hash, the same window, entry by entry.
	if err := srv1.journal.WaitCheckpoint(); err != nil { // the copy below is of a directory at rest
		t.Fatal(err)
	}
	fdsKilled, _ := testFDS(t)
	killed, err := NewServer(fdsKilled, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer killed.Close()
	killed.SetFixedLag(8)
	if err := killed.Open(crashtest.CopyDir(t, dir)); err != nil {
		t.Fatalf("Open after a kill behind the delta record: %v", err)
	}
	if got, want := killed.StateHash(), srv1.StateHash(); got != want {
		t.Fatalf("hash recovered behind the delta record %08x != live %08x", got, want)
	}
	if got, want := windowOf(killed), windowOf(srv1); !reflect.DeepEqual(got, want) {
		t.Fatalf("window recovered behind the delta record differs from the live one:\n got %+v\nwant %+v", got, want)
	}
	runFullRound(t, srv1, 2, c0, c1)
	preHash := srv1.StateHash()
	preState := srv1.State()
	srv1.Close() // kill -9: no Drain, no final checkpoint

	fds2, _ := testFDS(t)
	srv2, err := NewServer(fds2, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.SetFixedLag(8)
	if err := srv2.Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := srv2.Latest(); got != 2 {
		t.Fatalf("recovered latest = %d, want 2", got)
	}
	if srv2.StateHash() != preHash {
		t.Fatalf("recovered hash %08x != pre-crash %08x", srv2.StateHash(), preHash)
	}
	if !reflect.DeepEqual(srv2.State(), preState) {
		t.Fatalf("recovered state differs from pre-crash corrected state")
	}

	// The window survived the crash: a straggler for round 2 — buffered
	// before the crash — still rewinds on the restarted server.
	srv2.SetRoundDeadline(20 * time.Millisecond)
	if _, err := srv2.Submit(transport.Census{Edge: 0, Round: 3, Counts: c0}); err != nil {
		t.Fatal(err)
	}
	srv2.SetRoundDeadline(0)
	if _, err := srv2.Submit(transport.Census{Edge: 1, Round: 3, Counts: c1}); err != nil {
		t.Fatal(err)
	}
	runFullRound(t, srv2, 4, c0, c1)
	if n := metricValue(t, srv2.Registry(), "consensus_rewinds_total"); n != 1 {
		t.Fatalf("consensus_rewinds_total after restart = %v, want 1", n)
	}
	if srv2.StateHash() != ref.StateHash() {
		t.Fatalf("final hash %08x != lossless reference %08x", srv2.StateHash(), ref.StateHash())
	}
	if !reflect.DeepEqual(srv2.State(), ref.State()) {
		t.Fatalf("final state differs from lossless reference:\n got %+v\nwant %+v", srv2.State(), ref.State())
	}

	// A third incarnation recovers the twice-corrected history too.
	srv2.Close()
	fds3, _ := testFDS(t)
	srv3, err := NewServer(fds3, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	srv3.SetFixedLag(8)
	if err := srv3.Open(dir); err != nil {
		t.Fatalf("reopen after rewind: %v", err)
	}
	if srv3.StateHash() != ref.StateHash() {
		t.Fatalf("re-recovered hash %08x != reference %08x", srv3.StateHash(), ref.StateHash())
	}
}
