package cloud

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/transport"
)

// newLagServer builds a test server with a fixed-lag window.
func newLagServer(t *testing.T, lag int) *Server {
	t.Helper()
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if lag > 0 {
		srv.SetFixedLag(lag)
	}
	return srv
}

// degradedRound completes one round with only region 0 reporting, via the
// round deadline.
func degradedRound(t *testing.T, srv *Server, round int, counts []int) {
	t.Helper()
	srv.SetRoundDeadline(20 * time.Millisecond)
	if _, err := srv.Submit(transport.Census{Edge: 0, Round: round, Counts: counts}); err != nil {
		t.Fatalf("degraded round %d: %v", round, err)
	}
	srv.SetRoundDeadline(0)
}

// A late census inside the lag window must rewind the fold and re-propagate
// so the state — and the ratio answered to the late edge — are bit-identical
// to a lossless run.
func TestFixedLagRewindBitIdentical(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)

	// Lossless baseline: all three rounds complete with both censuses.
	base := newLagServer(t, 0)
	defer base.Close()
	var afterRound1 *game.State
	for round := 0; round < 3; round++ {
		runFullRound(t, base, round, c0, c1)
		if round == 1 {
			afterRound1 = base.State()
		}
	}

	// Faulted run: region 1's round-1 census is late, arriving only after
	// round 1 completed degraded.
	srv := newLagServer(t, 8)
	defer srv.Close()
	runFullRound(t, srv, 0, c0, c1)
	degradedRound(t, srv, 1, c0)
	lateX, err := srv.Submit(transport.Census{Edge: 1, Round: 1, Counts: c1})
	if err != nil {
		t.Fatalf("late census: %v", err)
	}
	if lateX != afterRound1.X[1] {
		t.Fatalf("late answer = %v, want corrected %v", lateX, afterRound1.X[1])
	}
	runFullRound(t, srv, 2, c0, c1)

	if !reflect.DeepEqual(srv.State(), base.State()) {
		t.Fatalf("rewound state differs from lossless baseline:\n got %+v\nwant %+v", srv.State(), base.State())
	}
	if srv.StateHash() != base.StateHash() {
		t.Fatalf("state hash %08x != baseline %08x", srv.StateHash(), base.StateHash())
	}
	reg := srv.Registry()
	if n := metricValue(t, reg, "consensus_rewinds_total"); n != 1 {
		t.Errorf("consensus_rewinds_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "consensus_replayed_rounds_total"); n != 1 {
		t.Errorf("consensus_replayed_rounds_total = %v, want 1 (round 1 was the newest entry)", n)
	}
	if n := metricValue(t, reg, "consensus_state_hash"); uint32(n) != base.StateHash() {
		t.Errorf("consensus_state_hash gauge = %v, want %v", uint32(n), base.StateHash())
	}
}

// Several late censuses arriving out of order must still converge to the
// lossless fold: each rewind re-propagates through every buffered round
// after it.
func TestFixedLagRewindOutOfOrder(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)

	base := newLagServer(t, 0)
	defer base.Close()
	for round := 0; round < 4; round++ {
		runFullRound(t, base, round, c0, c1)
	}

	srv := newLagServer(t, 8)
	defer srv.Close()
	runFullRound(t, srv, 0, c0, c1)
	degradedRound(t, srv, 1, c0)
	degradedRound(t, srv, 2, c0)
	runFullRound(t, srv, 3, c0, c1)
	// Region 1's stragglers arrive newest-first.
	for _, round := range []int{2, 1} {
		if _, err := srv.Submit(transport.Census{Edge: 1, Round: round, Counts: c1}); err != nil {
			t.Fatalf("late census round %d: %v", round, err)
		}
	}

	if srv.StateHash() != base.StateHash() {
		t.Fatalf("state hash %08x != baseline %08x after out-of-order rewinds", srv.StateHash(), base.StateHash())
	}
	if !reflect.DeepEqual(srv.State(), base.State()) {
		t.Fatalf("rewound state differs from baseline:\n got %+v\nwant %+v", srv.State(), base.State())
	}
	reg := srv.Registry()
	if n := metricValue(t, reg, "consensus_rewinds_total"); n != 2 {
		t.Errorf("consensus_rewinds_total = %v, want 2", n)
	}
	// Rewinding round 2 re-folds rounds 2 and 3; rewinding round 1 re-folds
	// 1, 2, and 3.
	if n := metricValue(t, reg, "consensus_replayed_rounds_total"); n != 5 {
		t.Errorf("consensus_replayed_rounds_total = %v, want 5", n)
	}
}

// A byte-identical duplicate of a census the round already folded must be
// absorbed without a rewind or any state change.
func TestFixedLagDuplicateAbsorbed(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	srv := newLagServer(t, 8)
	defer srv.Close()
	runFullRound(t, srv, 0, c0, c1)
	runFullRound(t, srv, 1, c0, c1)

	before := srv.StateHash()
	x, err := srv.Submit(transport.Census{Edge: 1, Round: 1, Counts: append([]int(nil), c1...)})
	if err != nil {
		t.Fatalf("duplicate census: %v", err)
	}
	if x != srv.State().X[1] {
		t.Errorf("duplicate answered %v, want current %v", x, srv.State().X[1])
	}
	if srv.StateHash() != before {
		t.Error("duplicate census changed the state")
	}
	reg := srv.Registry()
	if n := metricValue(t, reg, "consensus_duplicate_censuses_total"); n != 1 {
		t.Errorf("consensus_duplicate_censuses_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "consensus_rewinds_total"); n != 0 {
		t.Errorf("consensus_rewinds_total = %v, want 0", n)
	}
}

// A late census for a round older than the window keeps the degraded
// answer-from-current-state path and is counted against the lag budget.
func TestFixedLagBeyondWindowCounted(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	srv := newLagServer(t, 2)
	defer srv.Close()
	for round := 0; round < 4; round++ {
		runFullRound(t, srv, round, c0, c1)
	}
	// Window now holds rounds 2 and 3; round 0 is beyond it.
	alt := make([]int, 8)
	alt[3] = 10
	before := srv.StateHash()
	x, err := srv.Submit(transport.Census{Edge: 1, Round: 0, Counts: alt})
	if err != nil {
		t.Fatalf("beyond-lag census: %v", err)
	}
	if x != srv.State().X[1] {
		t.Errorf("beyond-lag answered %v, want current %v", x, srv.State().X[1])
	}
	if srv.StateHash() != before {
		t.Error("beyond-lag census changed the state")
	}
	reg := srv.Registry()
	if n := metricValue(t, reg, "consensus_censuses_beyond_lag_total"); n != 1 {
		t.Errorf("consensus_censuses_beyond_lag_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "consensus_lag_window_depth"); n != 2 {
		t.Errorf("consensus_lag_window_depth = %v, want 2", n)
	}
	if n := metricValue(t, reg, "consensus_rewinds_total"); n != 0 {
		t.Errorf("consensus_rewinds_total = %v, want 0", n)
	}
}

// A re-submitted census inside a pending barrier (CloudLink redial) must be
// last-write-wins under the barrier lock and counted as a duplicate.
func TestPendingBarrierDuplicateLastWriteWins(t *testing.T) {
	srv := newLagServer(t, 0)
	defer srv.Close()
	first := make([]int, 8)
	first[0] = 10
	second := make([]int, 8)
	second[7] = 10

	// hasCensus reports whether round 0's pending barrier holds counts for
	// region 0 matching want.
	hasCensus := func(want []int) func() bool {
		return func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			rb, ok := srv.eng.Barrier(0)
			if !ok {
				return false
			}
			got := rb.Get(0)
			return got != nil && slices.Equal(got, want)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, counts := range [][]int{first, second} {
		wg.Add(1)
		go func(i int, counts []int) {
			defer wg.Done()
			_, errs[i] = srv.Submit(transport.Census{Edge: 0, Round: 0, Counts: counts})
		}(i, counts)
		// Sequence the two submissions so the re-submit is the last write.
		waitFor(t, hasCensus(counts))
	}
	if n := metricValue(t, srv.Registry(), "consensus_duplicate_censuses_total"); n != 1 {
		t.Errorf("consensus_duplicate_censuses_total = %v, want 1", n)
	}
	if _, err := srv.Submit(transport.Census{Edge: 1, Round: 0, Counts: second}); err != nil {
		t.Fatalf("completing census: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The fold must have used the last write for region 0 (all weight on
	// decision 8, not decision 1).
	state := srv.State()
	if state.P[0][7] != 1 || state.P[0][0] != 0 {
		t.Errorf("region 0 folded %v, want last-write shares on decision 8", state.P[0])
	}
}

// Censuses absurdly far ahead of the latest round must be rejected with the
// typed error instead of allocating a barrier.
func TestSubmitRejectsFutureRound(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	srv := newLagServer(t, 0)
	defer srv.Close()
	srv.eng.maxSkew = 4
	runFullRound(t, srv, 0, c0, c1)

	_, err := srv.Submit(transport.Census{Edge: 0, Round: 100, Counts: c0})
	if !errors.Is(err, ErrFutureRound) {
		t.Fatalf("Submit(round 100) = %v, want ErrFutureRound", err)
	}
	if n := metricValue(t, srv.Registry(), "consensus_future_censuses_total"); n != 1 {
		t.Errorf("consensus_future_censuses_total = %v, want 1", n)
	}
	// A round at the bound is still accepted.
	done := make(chan error, 1)
	go func() {
		_, err := srv.Submit(transport.Census{Edge: 0, Round: 4, Counts: c0})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Submit(round 4) returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
		// Still blocked on the barrier: the census was accepted.
	}
	if _, err := srv.Submit(transport.Census{Edge: 1, Round: 4, Counts: c1}); err != nil {
		t.Fatalf("completing round 4: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Submit(round 4): %v", err)
	}
}
