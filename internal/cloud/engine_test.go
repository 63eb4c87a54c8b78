package cloud

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// rig is a bare kernel with a recording Complete hook that releases every
// barrier it is handed — the smallest possible owner.
type rig struct {
	mu        sync.Mutex
	eng       *Engine
	closed    chan struct{}
	tick      Counters
	completed []completion // guarded by mu
}

type completion struct {
	round    int
	degraded bool
	edges    []int
}

// ids returns 0..n-1.
func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func newRig(members, k int) *rig {
	reg := obs.NewRegistry()
	r := &rig{closed: make(chan struct{}), tick: Counters{
		Duplicates:     reg.Counter("dup", ""),
		Future:         reg.Counter("future", ""),
		BadCensus:      reg.Counter("bad", ""),
		Abandoned:      reg.Counter("abandoned", ""),
		LeaseEvictions: reg.Counter("evictions", ""),
	}}
	r.eng = NewEngine(EngineConfig{
		Lock:     &r.mu,
		Name:     "rig",
		Members:  ids(members),
		K:        k,
		Closed:   r.closed,
		Counters: &r.tick,
		Span:     func(int) obs.Span { return obs.Span{} },
		Complete: func(round int, b *Barrier, degraded bool) func() {
			var edges []int
			for e := range b.asMap() {
				edges = append(edges, e)
			}
			sort.Ints(edges)
			r.completed = append(r.completed, completion{round, degraded, edges})
			r.eng.Release(round, b, degraded)
			return nil
		},
	})
	return r
}

// Get returns region edge's census, or nil when it has none.
func (s *CensusSet) Get(edge int) []int {
	if edge < 0 || edge >= len(s.counts) {
		return nil
	}
	return s.counts[edge]
}

// setOf lays censuses out as a census set of m regions, over their counts.
func setOf(m int, censuses map[int][]int) *CensusSet {
	set := &CensusSet{counts: make([][]int, m)}
	for region, counts := range censuses {
		set.counts[region] = counts
		set.n++
	}
	return set
}

// asMap is the set as a census map over the set's own counts: how tests
// look a set over whole.
func (s *CensusSet) asMap() map[int][]int {
	m := make(map[int][]int, s.n)
	for region, counts := range s.counts {
		if counts != nil {
			m[region] = counts
		}
	}
	return m
}

func (r *rig) completions() []completion {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]completion(nil), r.completed...)
}

func (r *rig) latest() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Latest()
}

func census(edge, round int, counts ...int) transport.Census {
	return transport.Census{Edge: edge, Round: round, Counts: counts}
}

// add places one census without waiting on its barrier.
func (r *rig) add(t *testing.T, c transport.Census) {
	t.Helper()
	if late, err := r.eng.Add(c.Round, []transport.Census{c}); err != nil || late {
		t.Fatalf("Add(%+v) = late %v, err %v", c, late, err)
	}
}

// outcome is what a Submit returned.
type outcome struct {
	late bool
	err  error
}

// submit places one census, as Submit does, before it returns, and waits on
// its barrier in the background: the outcome arrives once the barrier
// resolves.
func (r *rig) submit(t *testing.T, c transport.Census) <-chan outcome {
	t.Helper()
	b, late, err := r.eng.add(c.Round, []transport.Census{c}, true)
	if err != nil || late || b == nil {
		t.Fatalf("add(%+v) = %v, late %v, err %v", c, b, late, err)
	}
	out := make(chan outcome, 1)
	go func() {
		late, err := r.eng.wait(b, late)
		out <- outcome{late, err}
	}()
	return out
}

func TestEngineRoster(t *testing.T) {
	const long, short = time.Hour, 20 * time.Millisecond
	cases := map[string]func(t *testing.T, r *rig){
		"renew validates the member and the ttl": func(t *testing.T, r *rig) {
			if err := r.eng.Renew(5, long); err == nil {
				t.Error("lease for a non-member accepted")
			}
			if err := r.eng.Renew(0, 0); err == nil {
				t.Error("lease with zero TTL accepted")
			}
			if err := r.eng.Renew(0, long); err != nil {
				t.Errorf("valid lease rejected: %v", err)
			}
			if live := r.eng.LiveLeases(); !reflect.DeepEqual(live, []int{0}) {
				t.Errorf("live leases = %v, want [0]", live)
			}
		},
		"without leases the barrier waits for every member": func(t *testing.T, r *rig) {
			b := r.submit(t, census(0, 0, 1, 2))
			select {
			case <-b:
				t.Fatal("barrier completed on one of two members with no lease in play")
			case <-time.After(3 * short):
			}
			r.add(t, census(1, 0, 2, 1))
			if o := <-b; o.late || o.err != nil {
				t.Errorf("round 0 = %+v, want completed", o)
			}
			if got := r.completions(); !reflect.DeepEqual(got, []completion{{0, false, []int{0, 1}}}) {
				t.Errorf("completions = %+v, want round 0 full", got)
			}
		},
		"expiry evicts and completes the best satisfiable barrier": func(t *testing.T, r *rig) {
			if err := r.eng.Renew(0, long); err != nil {
				t.Fatal(err)
			}
			if err := r.eng.Renew(1, short); err != nil {
				t.Fatal(err)
			}
			stale, best := r.submit(t, census(0, 3, 1, 2)), r.submit(t, census(0, 4, 1, 2))
			if o := <-best; o.late || o.err != nil {
				t.Errorf("round 4 = %+v, want completed", o)
			}
			if o := <-stale; !errors.Is(o.err, ErrRoundAbandoned) {
				t.Errorf("round 3: err %v, want ErrRoundAbandoned (swept by round 4)", o.err)
			}
			if got := r.completions(); !reflect.DeepEqual(got, []completion{{4, true, []int{0}}}) {
				t.Errorf("completions = %+v, want only round 4", got)
			}
			if n := r.tick.LeaseEvictions.Value(); n != 1 {
				t.Errorf("evictions = %d, want 1", n)
			}
			if live := r.eng.LiveLeases(); !reflect.DeepEqual(live, []int{0}) {
				t.Errorf("live leases = %v, want [0]", live)
			}
		},
		"a renewal racing the expiry timer re-arms instead of evicting": func(t *testing.T, r *rig) {
			if err := r.eng.Renew(1, short); err != nil {
				t.Fatal(err)
			}
			// The renewal's effect without its timer reset: exactly what the
			// expiry callback sees when it lost the lock to a renewal.
			r.mu.Lock()
			r.eng.roster[1].lease.expiry = time.Now().Add(long)
			r.mu.Unlock()
			time.Sleep(4 * short)
			if live := r.eng.LiveLeases(); !reflect.DeepEqual(live, []int{1}) {
				t.Errorf("live leases = %v, want [1]: the fired timer must re-arm for the true expiry", live)
			}
			if n := r.tick.LeaseEvictions.Value(); n != 0 {
				t.Errorf("evictions = %d, want 0", n)
			}
		},
		"a renewal after eviction re-admits the member": func(t *testing.T, r *rig) {
			if err := r.eng.Renew(0, long); err != nil {
				t.Fatal(err)
			}
			if err := r.eng.Renew(1, short); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return len(r.eng.LiveLeases()) == 1 })
			if err := r.eng.Renew(1, long); err != nil {
				t.Fatal(err)
			}
			b := r.submit(t, census(0, 0, 1, 2))
			select {
			case <-b:
				t.Fatal("barrier completed without the re-admitted member")
			case <-time.After(3 * short):
			}
			r.add(t, census(1, 0, 2, 1))
			<-b
			if got := r.completions(); !reflect.DeepEqual(got, []completion{{0, false, []int{0, 1}}}) {
				t.Errorf("completions = %+v, want round 0 full, not degraded", got)
			}
		},
		"stop cancels every timer": func(t *testing.T, r *rig) {
			r.mu.Lock()
			r.eng.Deadline = short
			r.mu.Unlock()
			if err := r.eng.Renew(1, short); err != nil {
				t.Fatal(err)
			}
			b := r.submit(t, census(0, 0, 1, 2))
			r.mu.Lock()
			r.eng.Stop()
			r.mu.Unlock()
			if o := <-b; !errors.Is(o.err, transport.ErrClosed) {
				t.Errorf("pending barrier after Stop: err %v, want ErrClosed", o.err)
			}
			time.Sleep(4 * short)
			if got := r.completions(); len(got) != 0 {
				t.Errorf("completions after Stop = %+v, want none (deadline timer must be cancelled)", got)
			}
			if n := r.tick.LeaseEvictions.Value(); n != 0 {
				t.Errorf("evictions after Stop = %d, want 0 (lease timer must be cancelled)", n)
			}
			if err := r.eng.Renew(0, long); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Renew after Stop = %v, want ErrClosed", err)
			}
			if _, err := r.eng.Add(1, []transport.Census{census(0, 1, 1, 2)}); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Add after Stop = %v, want ErrClosed", err)
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRig(2, 2)
			defer func() {
				r.mu.Lock()
				r.eng.Stop()
				r.mu.Unlock()
			}()
			run(t, r)
		})
	}
}

func TestEngineIngestClassification(t *testing.T) {
	type want struct {
		late    bool
		err     error // matched with errors.Is; anyErr accepts any refusal
		pending int   // censuses on the round's barrier afterwards
		dup     int64
		future  int64
		bad     int64
	}
	anyErr := errors.New("any refusal")
	cases := []struct {
		name     string
		round    int
		censuses []transport.Census
		want     want
	}{
		{"pending: a census ahead of the watermark waits on its barrier", 1, []transport.Census{census(0, 1, 1, 2)}, want{pending: 1}},
		{"pending: a batch lands whole", 1, []transport.Census{census(0, 1, 1, 2), census(1, 1, 2, 1)}, want{pending: 2}},
		{"duplicate: last write wins and is counted", 2, []transport.Census{census(0, 2, 9, 9)}, want{pending: 1, dup: 1}},
		{"late: a round at the watermark is the owner's to resolve", 0, []transport.Census{census(0, 0, 1, 2)}, want{late: true}},
		{"future: beyond the skew bound", 100, []transport.Census{census(0, 100, 1, 2)}, want{err: ErrFutureRound, future: 1}},
		{"bad: wrong number of counts", 1, []transport.Census{census(0, 1, 1, 2, 3)}, want{err: ErrBadCensus, bad: 1}},
		{"bad: a negative count", 1, []transport.Census{census(0, 1, -1, 2)}, want{err: ErrBadCensus, bad: 1}},
		{"bad: one malformed census refuses the whole batch", 1, []transport.Census{census(0, 1, 1, 2), census(1, 1, 2, -1)}, want{err: ErrBadCensus, bad: 1}},
		{"refused: not a member", 1, []transport.Census{census(7, 1, 1, 2)}, want{err: anyErr}},
		{"refused: a census for another round", 1, []transport.Census{census(0, 2, 1, 2)}, want{err: anyErr}},
		{"refused: an empty batch", 1, nil, want{err: anyErr}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Three members, so no case fills the quorum; round 0 completed,
			// round 2 already holds member 0's census; skew bound 4.
			r := newRig(3, 2)
			r.eng.maxSkew = 4
			for e := 0; e < 3; e++ {
				r.add(t, census(e, 0, 1, 1))
			}
			r.add(t, census(0, 2, 1, 2))

			late, err := r.eng.Add(tc.round, tc.censuses)
			r.mu.Lock()
			b, _ := r.eng.Barrier(tc.round)
			r.mu.Unlock()
			switch {
			case tc.want.err == nil && err != nil:
				t.Fatalf("Add = %v, want accepted", err)
			case tc.want.err == anyErr && err == nil, tc.want.err != nil && tc.want.err != anyErr && !errors.Is(err, tc.want.err):
				t.Fatalf("Add = %v, want %v", err, tc.want.err)
			}
			if late != tc.want.late {
				t.Errorf("late = %v, want %v", late, tc.want.late)
			}
			if (b != nil) != (tc.want.pending > 0) {
				t.Errorf("barrier = %v, want pending %d", b, tc.want.pending)
			}
			if b != nil {
				if b.Size() != tc.want.pending {
					t.Errorf("barrier holds %d censuses, want %d", b.Size(), tc.want.pending)
				}
				last := tc.censuses[len(tc.censuses)-1]
				if got := b.Get(last.Edge); !reflect.DeepEqual(got, last.Counts) {
					t.Errorf("barrier has %v for edge %d, want %v", got, last.Edge, last.Counts)
				}
			}
			if err != nil {
				// A refusal places nothing: round 1 has no barrier, round 2
				// still holds exactly what it held.
				r.mu.Lock()
				_, opened := r.eng.Barrier(1)
				held := r.eng.rounds[2].Get(0)
				r.mu.Unlock()
				if opened || !reflect.DeepEqual(held, []int{1, 2}) {
					t.Errorf("refused ingest left a trace: round 1 opened %v, round 2 holds %v", opened, held)
				}
			}
			for name, got := range map[string][2]int64{
				"duplicates": {r.tick.Duplicates.Value(), tc.want.dup},
				"future":     {r.tick.Future.Value(), tc.want.future},
				"bad":        {r.tick.BadCensus.Value(), tc.want.bad},
			} {
				if got[0] != got[1] {
					t.Errorf("%s counter = %d, want %d", name, got[0], got[1])
				}
			}
			if r.latest() != 0 {
				t.Errorf("watermark moved to %d", r.latest())
			}
		})
	}
}

// A one-census Submit is the batch path with a batch of one: same barrier,
// same completion, same wake-up.
func TestEngineSubmitOneIsBatchOfOne(t *testing.T) {
	r := newRig(3, 2)
	var wg sync.WaitGroup
	submit := func(censuses ...transport.Census) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if late, err := r.eng.Submit(0, censuses, nil); late || err != nil {
				t.Errorf("Submit(%v) = late %v, err %v", censuses, late, err)
			}
		}()
	}
	submit(census(2, 0, 3, 3))
	submit(census(0, 0, 1, 2), census(1, 0, 2, 1))
	wg.Wait()
	if got := r.completions(); !reflect.DeepEqual(got, []completion{{0, false, []int{0, 1, 2}}}) {
		t.Errorf("completions = %+v, want one full round 0", got)
	}
	if late, err := r.eng.Submit(0, []transport.Census{census(1, 0, 5, 5)}, nil); !late || err != nil {
		t.Errorf("Submit for the completed round = late %v, err %v, want late", late, err)
	}
}

// A barrier frozen by its owner's Complete hook takes no more censuses: a
// straggler waits for it to resolve and is then reported late, and the
// deferred work runs outside the lock.
func TestEngineFrozenBarrierReportsStragglersLate(t *testing.T) {
	r := newRig(2, 2)
	release := make(chan struct{})
	r.eng.cfg.Complete = func(round int, b *Barrier, degraded bool) func() {
		b.Frozen = true
		return func() {
			<-release // e.g. an upstream exchange
			r.mu.Lock()
			r.eng.Release(round, b, degraded)
			r.eng.Thaw(b)
			r.mu.Unlock()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if late, err := r.eng.Submit(0, []transport.Census{census(0, 0, 1, 2), census(1, 0, 2, 1)}, nil); late || err != nil {
			t.Errorf("filling Submit = late %v, err %v", late, err)
		}
	}()
	waitFor(t, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		b, ok := r.eng.Barrier(0)
		return ok && b.Frozen
	})
	straggler := make(chan bool)
	go func() {
		late, err := r.eng.Submit(0, []transport.Census{census(1, 0, 9, 9)}, nil)
		if err != nil {
			t.Errorf("straggler Submit: %v", err)
		}
		straggler <- late
	}()
	select {
	case <-straggler:
		t.Fatal("straggler returned before the frozen barrier resolved")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if late := <-straggler; !late {
		t.Error("straggler on a frozen barrier not reported late")
	}
	<-done
	if r.tick.Duplicates.Value() != 0 {
		t.Error("straggler was added to the frozen barrier")
	}
}

// roundErr is the outcome a test owner's fold reports for its round.
type roundErr int

func (e roundErr) Error() string { return fmt.Sprintf("round %d", int(e)) }

// TestBarrierReuseWaitsForWaiters: the kernel opens a barrier again only once
// every Submit that waited on it has read its outcome. Four rounds at a time,
// each with three waiters (one a duplicate census), run against a 1 ms
// deadline, so rounds complete full, degraded or abandoned and stragglers
// arrive late; every waiter reads its own round's outcome, never a later
// round's, and a handful of barriers serve every round.
func TestBarrierReuseWaitsForWaiters(t *testing.T) {
	const rounds, inFlight = 400, 4
	r := newRig(2, 2)
	r.eng.cfg.Complete = func(round int, b *Barrier, degraded bool) func() {
		b.Err = roundErr(round)
		r.eng.Release(round, b, degraded)
		return nil
	}
	r.mu.Lock()
	r.eng.Deadline = time.Millisecond
	r.mu.Unlock()
	slots := make(chan struct{}, inFlight)
	var all sync.WaitGroup
	for round := 0; round < rounds; round++ {
		slots <- struct{}{}
		var waiters sync.WaitGroup
		for _, edge := range []int{0, 0, 1} {
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				late, err := r.eng.Submit(round, []transport.Census{census(edge, round, 1, 2)}, nil)
				var own roundErr
				switch {
				case errors.As(err, &own):
					if int(own) != round {
						t.Errorf("a round %d waiter read round %d's outcome", round, int(own))
					}
				case errors.Is(err, ErrRoundAbandoned):
					if !strings.Contains(err.Error(), fmt.Sprintf("round %d superseded", round)) {
						t.Errorf("a round %d waiter read %v", round, err)
					}
				case err != nil || !late:
					t.Errorf("a round %d waiter: late %v, err %v", round, late, err)
				}
			}()
		}
		all.Add(1)
		go func() {
			defer all.Done()
			waiters.Wait()
			<-slots
		}()
	}
	all.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.eng.idle); n == 0 || n > 2*inFlight || len(r.eng.rounds) != 0 {
		t.Errorf("%d rounds left %d idle barriers and %d pending; want 1 to %d idle, none pending", rounds, n, len(r.eng.rounds), 2*inFlight)
	}
	for _, b := range r.eng.idle {
		if len(b.wake) != 0 || b.waiters != 0 || b.CensusSet != nil {
			t.Errorf("an idle barrier holds %d tokens, %d waiters, census set %v", len(b.wake), b.waiters, b.CensusSet)
		}
	}
}

// TestBarrierWaiterLeavesOnClose: a waiter that leaves on its owner's close,
// whether its barrier resolved first or not, takes the token counted for it,
// so the barrier the kernel keeps wakes no later waiter early.
func TestBarrierWaiterLeavesOnClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := newRig(2, 2)
		waiter := r.submit(t, census(0, 0, 1, 2))
		r.mu.Lock()
		if i%2 == 0 {
			r.eng.Stop() // resolved before the close
		}
		close(r.closed)
		r.mu.Unlock()
		if o := <-waiter; o.err == nil {
			t.Fatalf("run %d: waiter = %+v, want ErrClosed", i, o)
		}
		r.mu.Lock()
		r.eng.Stop()
		if len(r.eng.idle) != 1 || len(r.eng.idle[0].wake) != 0 {
			t.Errorf("run %d: %d idle barriers, want 1 holding no token", i, len(r.eng.idle))
		}
		r.mu.Unlock()
	}
}

// TestFrozenBarrierIsNotReused: a frozen barrier stays its owner's until
// Thaw, even once a newer round has evicted it and its waiters have gone:
// the owner's in-flight completion — here its deadline's, on the timer's
// goroutine — still finds it, resolved, and only then does the kernel open
// it again.
func TestFrozenBarrierIsNotReused(t *testing.T) {
	r := newRig(2, 2)
	release, thawed := make(chan struct{}), make(chan bool)
	var frozen *Barrier
	r.eng.cfg.Complete = func(round int, b *Barrier, degraded bool) func() {
		if round > 0 {
			r.eng.Release(round, b, degraded)
			return nil
		}
		b.Frozen, frozen = true, b
		return func() {
			<-release // e.g. an upstream exchange
			r.mu.Lock()
			pending, _ := r.eng.Barrier(0)
			resolved := pending != b && b.Err != nil
			r.eng.Thaw(b) // the last read of b
			r.mu.Unlock()
			thawed <- resolved
		}
	}
	r.mu.Lock()
	r.eng.Deadline = time.Millisecond
	r.mu.Unlock()
	first := r.submit(t, census(0, 0, 1, 2)) // its deadline freezes it
	waitFor(t, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return frozen != nil
	})
	if late, err := r.eng.Submit(1, []transport.Census{census(0, 1, 1, 2), census(1, 1, 2, 1)}, nil); late || err != nil {
		t.Fatalf("round 1 = late %v, err %v", late, err)
	}
	if o := <-first; !errors.Is(o.err, ErrRoundAbandoned) {
		t.Fatalf("round 0's waiter = %+v, want ErrRoundAbandoned", o)
	}
	r.add(t, census(0, 2, 1, 2))
	r.mu.Lock()
	if r.eng.rounds[2] == frozen || slices.Contains(r.eng.idle, frozen) {
		t.Error("the frozen round-0 barrier was let go of before its owner thawed it")
	}
	r.mu.Unlock()
	close(release)
	if !<-thawed {
		t.Error("the owner's completion found its barrier pending or unresolved")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Contains(r.eng.idle, frozen) {
		t.Error("a thawed, resolved barrier was not kept for reuse")
	}
}
