package cloud

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ErrRoundAbandoned is returned by Submit when a round's barrier was
// evicted because a newer round completed before the barrier filled — the
// submitting edge fell behind a partition or restart and should move on to
// the coordinator's current round.
var ErrRoundAbandoned = errors.New("cloud: round abandoned")

// ErrBadCensus is returned for a census whose shape cannot be folded: its
// Counts length differs from the number of decisions K (folding it would
// silently drop it), or a count is negative (the wire's zig-zag varints
// carry negative ints, and a negative share would corrupt the game state).
var ErrBadCensus = errors.New("cloud: malformed census")

// ErrFutureRound is returned for a census whose round is further ahead of
// the latest completed round than the skew bound. Accepting it would let a
// clock-skewed (or malicious) edge allocate barriers arbitrarily far ahead
// and grow the pending set without limit.
var ErrFutureRound = errors.New("cloud: census round beyond skew bound")

// defaultMaxRoundSkew bounds how far ahead of the latest completed round a
// census may be before it is rejected with ErrFutureRound.
const defaultMaxRoundSkew = 1024

// Engine is the round-coordination kernel under all three consensus
// topologies: the cloud (Server), a shard coordinator (internal/shard) and a
// gossip neighborhood member (internal/gossip) are the same mechanism with
// a different member set and a different meaning of "complete". The kernel
// owns
//
//   - the membership roster: lease renewal, expiry, re-admission, and the
//     quorum rule a barrier must meet;
//   - one Barrier per pending round, each with a completion deadline;
//   - census ingest as a batch of N for one round: shape validation, the
//     late / future / pending classification against the completed-round
//     watermark, open-or-find barrier, last-write-wins add, quorum check;
//   - the eviction sweep that abandons stale barriers once a newer round
//     completes.
//
// It holds no fold state. It is constructed over the owner's lock: entry
// points documented "takes the lock" acquire it, everything else is called
// with it held, and the kernel's own timers acquire it before touching
// anything. What a completed barrier means is the owner's Complete hook.
type Engine struct {
	// Deadline bounds every barrier opened from now on: a round whose quorum
	// has not filled within Deadline of its first census completes degraded.
	// Zero leaves barriers unbounded. Guarded by the lock.
	Deadline time.Duration

	cfg     EngineConfig
	mu      sync.Locker
	maxSkew int
	rounds  map[int]*Barrier
	latest  int      // highest completed round (-1 before the first)
	roster  []member // by region id, up to the highest member's
	live    int      // members holding a live lease
	leasing bool     // false until the first lease: all members form the quorum
	resent  int      // the first round after a recovery, its members' re-sends awaited (Recovered; -1: none)
	stopped bool
	fanout  []*reporter  // PushCorrections' sessions, empty between calls
	spare   []*CensusSet // sets owners recycled, which Place fills before it allocates
	idle    []*Barrier   // barriers let go of, which Place opens before it allocates
}

// member is the kernel's state for one region id: membership, lease, session.
type member struct {
	owned bool
	lease leaseEntry
	sess  *reporter
}

// EngineConfig is what differs between the kernel's owners.
type EngineConfig struct {
	// Lock is the owner's mutex (required); see Engine.
	Lock sync.Locker
	// Name prefixes the kernel's errors and log lines ("cloud", "shard 2").
	Name string
	// Members are the member ids (regions, or edges; at least one, none
	// negative, no repeats): a barrier holding a census from each is full.
	Members []int
	// K is the number of decisions every census must carry.
	K int
	// Closed is closed when the owner shuts down; blocked submitters return
	// transport.ErrClosed.
	Closed <-chan struct{}
	// Counters are the owner's instruments the kernel ticks (required; the
	// kernel reads the fields at tick time, so the owner may re-bind them).
	Counters *Counters
	// Logf, when non-nil, receives the kernel's log lines. Called with the
	// lock held.
	Logf func(format string, args ...interface{})
	// Span opens the owner's span for a new barrier (the owners' span names
	// differ). Called with the lock held.
	Span func(round int) obs.Span
	// Complete is called with the lock held when a barrier must complete:
	// its quorum filled, its deadline fired (degraded), a lease eviction
	// left it satisfied, or the owner is draining. The owner folds or
	// forwards the round and resolves the barrier with Release or Fail —
	// either before returning, or, when completing means work outside the
	// lock, by setting Barrier.Frozen and returning that work: the kernel
	// runs after (when non-nil) once the lock is released.
	Complete func(round int, b *Barrier, degraded bool) (after func())
	// Ratio returns a member's current sharing ratio, the step-② answer.
	// Called with the lock held. Owners that never answer ratios leave it nil.
	Ratio func(edge int) float64
}

// Counters are the instruments the kernel ticks on its owner's behalf. Each
// owner binds its own metric names; nil fields discard their updates.
type Counters struct {
	Rounds         *obs.Counter   // barriers released as completed rounds
	Degraded       *obs.Counter   // ... of which with members missing
	Abandoned      *obs.Counter   // stale barriers evicted by a newer round
	Duplicates     *obs.Counter   // censuses overwriting one already on a barrier
	Future         *obs.Counter   // censuses refused for exceeding the skew bound
	BadCensus      *obs.Counter   // malformed frames and censuses refused
	LeaseRenewals  *obs.Counter   // lease registrations and renewals
	LeaseEvictions *obs.Counter   // members evicted from the quorum by lease expiry
	LeasesLive     *obs.Gauge     // members currently holding a live lease
	Latest         *obs.Gauge     // highest completed round
	RoundDuration  *obs.Histogram // first census to release, seconds
}

// CensusSet is one round's censuses: the table a barrier collects them in,
// indexed by region, and the storage their counts are copied into, so what a
// barrier keeps is its own. Once its owner is done with a set — every reader
// of the round's censuses, journal record or window entry — it hands the set
// back (Engine.Recycle) and a later barrier fills it without allocating.
type CensusSet struct {
	counts [][]int // by region; nil where no census came
	n      int     // the censuses held
	slab   []int   // the storage counts are cut from; free is its unused tail
	free   []int
	sorted []transport.Census // Sorted's list
}

// put copies counts, which are never empty, in as region edge's census:
// over the census edge already has (dup), else into the slab, which is
// replaced by one of room ints when it runs short. edge indexes the table.
func (s *CensusSet) put(edge int, counts []int, room int) (dup bool) {
	slot := s.counts[edge]
	dup = slot != nil
	if n := len(counts); !dup || len(slot) != n {
		if len(s.free) < n {
			s.slab = make([]int, max(room, n))
			s.free = s.slab
		}
		slot, s.free = s.free[:n:n], s.free[n:]
		s.counts[edge] = slot
	}
	if !dup {
		s.n++
	}
	copy(slot, counts)
	return dup
}

// Sorted lists the set's censuses in ascending region order, the form batches,
// digests and journal records carry, in a list the set keeps.
func (s *CensusSet) Sorted(round int) []transport.Census {
	list := slices.Grow(s.sorted[:0], s.n)
	for region, counts := range s.counts {
		if counts != nil {
			list = append(list, transport.Census{Edge: region, Round: round, Counts: counts})
		}
	}
	s.sorted = list
	return list
}

// Barrier collects one pending round's censuses until its quorum fills or
// its deadline expires. Submit waits on it; once it resolves, Err reports
// abandonment, failure or shutdown (nil means the round completed and the
// owner's post-round state is current). The kernel reuses a barrier for a
// later round once it has resolved, no Submit still waits on it and it is
// not Frozen, so an owner reads a barrier only under the lock it was placed
// or completed under or, when frozen, until it calls Thaw. All fields are
// guarded by the owner's lock.
type Barrier struct {
	*CensusSet
	Err    error
	Opened time.Time
	Span   obs.Span
	// Frozen marks a barrier whose completion is in flight outside the lock
	// (set by the owner's Complete hook): the kernel no longer adds to it,
	// expires it, completes it again or reuses it until the owner calls
	// Thaw, and a census that finds it frozen is reported late once the
	// barrier resolves.
	Frozen   bool
	round    int
	due      time.Time     // when the deadline completes it; zero when untimed
	timer    *time.Timer   // the deadline, kept across rounds
	wake     chan struct{} // one token per waiter when it resolves
	waiters  int           // Submits waiting on it
	resolved bool
	digested []bool // the neighborhoods whose digests carried the round (SubmitDigest)
}

// Size returns how many members have reported.
func (b *Barrier) Size() int { return b.n }

// viaDigest reports whether a neighborhood's digest carried the round.
func (b *Barrier) viaDigest() bool { return slices.Contains(b.digested, true) }

// resolve stops b's deadline and wakes its waiters with err.
func (b *Barrier) resolve(err error) {
	if b.timer != nil {
		b.timer.Stop()
	}
	b.Err, b.resolved, b.due = err, true, time.Time{}
	for range b.waiters {
		b.wake <- struct{}{}
	}
}

// letGo keeps b for Place to open again once it has resolved and nothing
// holds it: no waiter and no frozen completion. The census set stays its
// owner's.
func (e *Engine) letGo(b *Barrier) {
	if b.resolved && b.waiters == 0 && !b.Frozen {
		b.CensusSet, b.Err, b.Span, b.resolved = nil, nil, obs.Span{}, false
		clear(b.digested)
		e.idle = append(e.idle, b)
	}
}

// Thaw ends the hold a Complete hook took on b by freezing it: the owner's
// completion is through with b, which has resolved or is resolved with it.
// Called with the lock held.
func (e *Engine) Thaw(b *Barrier) {
	b.Frozen = false
	e.letGo(b)
}

// NewEngine returns an idle kernel with no completed rounds.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, mu: cfg.Lock, maxSkew: defaultMaxRoundSkew, rounds: make(map[int]*Barrier), latest: -1, resent: -1}
	e.roster = make([]member, slices.Max(cfg.Members)+1)
	for _, id := range cfg.Members {
		e.roster[id].owned = true
	}
	return e
}

// Owns reports whether edge is a member.
func (e *Engine) Owns(edge int) bool {
	return edge >= 0 && edge < len(e.roster) && e.roster[edge].owned
}

func (e *Engine) logf(format string, args ...interface{}) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// Latest returns the highest completed round (-1 before the first).
func (e *Engine) Latest() int { return e.latest }

// Advance moves the completed-round watermark up to round; it never moves
// back (recovery replay, and adoptions that resolve out of order).
func (e *Engine) Advance(round int) {
	if round > e.latest {
		e.latest = round
		e.cfg.Counters.Latest.Set(float64(round))
	}
}

// Barrier returns the pending barrier for round, if any.
func (e *Engine) Barrier(round int) (*Barrier, bool) {
	b, ok := e.rounds[round]
	return b, ok
}

// Pending returns the number of rounds currently holding a barrier.
func (e *Engine) Pending() int { return len(e.rounds) }

// Validate checks every census's shape — a member's id, exactly K counts,
// none negative — so nothing unfoldable reaches a barrier. A malformed
// census is counted and logged. Takes the lock (to log).
func (e *Engine) Validate(censuses []transport.Census) error {
	bad := func(err error) error {
		e.DropFrame(err)
		return err
	}
	for i := range censuses {
		c := &censuses[i]
		if !e.Owns(c.Edge) {
			return fmt.Errorf("%s: census from edge %d, which is not a member", e.cfg.Name, c.Edge)
		}
		if len(c.Counts) != e.cfg.K {
			return bad(fmt.Errorf("%w: edge %d sent %d counts, lattice has %d decisions", ErrBadCensus, c.Edge, len(c.Counts), e.cfg.K))
		}
		for _, n := range c.Counts {
			if n < 0 {
				return bad(fmt.Errorf("%w: edge %d sent a negative count %d", ErrBadCensus, c.Edge, n))
			}
		}
	}
	return nil
}

// DropFrame counts and logs a malformed frame or census. Takes the lock.
func (e *Engine) DropFrame(err error) {
	e.cfg.Counters.BadCensus.Inc()
	e.mu.Lock()
	e.logf("%s: dropping malformed frame: %v", e.cfg.Name, err)
	e.mu.Unlock()
}

// Place classifies one round's validated censuses against the watermark and
// puts them on the round's barrier, opening it if needed — an idle one before
// a fresh one; timed barriers arm the Deadline. A round at or below the
// watermark is late: nothing is placed and the owner resolves the censuses
// its own way. A round beyond the skew bound is refused. A census finding
// its barrier frozen is not added; the barrier is returned with late set.
// Otherwise each census's counts are copied onto the barrier, last write
// wins — a redialing link re-submits the census it never got an answer for
// — so the caller's censuses stay the caller's. Called with the lock held,
// which the caller keeps while it reads the barrier; it does not check the
// quorum.
func (e *Engine) Place(round int, censuses []transport.Census, timed bool) (b *Barrier, late bool, err error) {
	switch {
	case e.stopped:
		return nil, false, transport.ErrClosed
	case round <= e.latest:
		return nil, true, nil
	case e.maxSkew > 0 && round > e.latest+e.maxSkew:
		e.cfg.Counters.Future.Inc()
		e.logf("%s: rejecting census for round %d (latest %d, skew bound %d)", e.cfg.Name, round, e.latest, e.maxSkew)
		return nil, false, fmt.Errorf("%w: round %d is beyond latest %d + skew %d", ErrFutureRound, round, e.latest, e.maxSkew)
	}
	b, ok := e.rounds[round]
	if !ok {
		if n := len(e.idle); n > 0 {
			b, e.idle = e.idle[n-1], e.idle[:n-1]
		} else {
			b = &Barrier{wake: make(chan struct{}, 1<<30)} // tokens of struct{} take no buffer
		}
		b.round, b.CensusSet, b.Opened, b.Span = round, e.takeSet(), time.Now(), e.cfg.Span(round)
		e.rounds[round] = b
		if timed && e.Deadline > 0 {
			b.due = b.Opened.Add(e.Deadline)
			if b.timer == nil {
				kept := b // the closure's own copy: capturing b would move it to the heap on every call
				b.timer = time.AfterFunc(e.Deadline, func() { e.expire(kept) })
			} else {
				b.timer.Reset(e.Deadline)
			}
		}
	}
	if b.Frozen {
		return b, true, nil
	}
	if len(censuses) == 1 {
		b.Span.Event("census", obs.A("edge", censuses[0].Edge))
	} else {
		b.Span.Event("census_batch", obs.A("edges", len(censuses)))
	}
	for i := range censuses {
		if b.put(censuses[i].Edge, censuses[i].Counts, len(e.cfg.Members)*e.cfg.K) {
			e.cfg.Counters.Duplicates.Inc()
		}
	}
	return b, false, nil
}

// takeSet returns a recycled census set, else a fresh one sized whole.
func (e *Engine) takeSet() *CensusSet {
	if n := len(e.spare); n > 0 {
		set := e.spare[n-1]
		e.spare = e.spare[:n-1]
		return set
	}
	return &CensusSet{counts: make([][]int, len(e.roster)), sorted: []transport.Census{}} // lists empty, not nil
}

// Collect puts a journaled round's censuses on a census set for the caller. A
// census of no member, or not of K counts, refuses the record: no round of
// this owner's wrote it, and its region ids index the set. Called with the
// lock held.
func (e *Engine) Collect(rec durable.RoundRecord) (*CensusSet, error) {
	set := e.takeSet()
	for region, counts := range rec.Censuses {
		if !e.Owns(region) || len(counts) != e.cfg.K {
			e.Recycle(set)
			return nil, fmt.Errorf("%s: round %d record has %d counts for region %d: not a member's census", e.cfg.Name, rec.Round, len(counts), region)
		}
		set.put(region, counts, len(e.cfg.Members)*e.cfg.K)
	}
	return set, nil
}

// Recycle takes back a census set its owner is done with, for Place to fill
// again; nil is ignored. Nothing may read the set's censuses afterwards.
// Called with the lock held.
func (e *Engine) Recycle(set *CensusSet) {
	if set != nil {
		clear(set.counts)
		clear(set.sorted) // pins no counts
		set.n, set.free, set.sorted = 0, set.slab, set.sorted[:0]
		e.spare = append(e.spare, set)
	}
}

// Spares returns how many recycled census sets wait for Place to fill them.
// Called with the lock held.
func (e *Engine) Spares() int { return len(e.spare) }

// Add validates one round's censuses, places them (see Place), and
// completes the barrier through the owner's hook if that fills the quorum.
// It does not wait. late means the round had already completed, or its
// completion was in flight. Takes the lock.
func (e *Engine) Add(round int, censuses []transport.Census) (late bool, err error) {
	_, late, err = e.add(round, censuses, false)
	return late, err
}

// add is Add; with wait, the barrier it returns holds the caller as a
// waiter, and without, the caller must not keep it.
func (e *Engine) add(round int, censuses []transport.Census, wait bool) (b *Barrier, late bool, err error) {
	if len(censuses) == 0 {
		return nil, false, fmt.Errorf("%s: empty census batch for round %d", e.cfg.Name, round)
	}
	for i := range censuses {
		if censuses[i].Round != round {
			return nil, false, fmt.Errorf("%s: batch for round %d carries a census for round %d (edge %d)",
				e.cfg.Name, round, censuses[i].Round, censuses[i].Edge)
		}
	}
	if err := e.Validate(censuses); err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	var after func()
	b, late, err = e.Place(round, censuses, true)
	if b != nil && wait {
		b.waiters++
	}
	if b != nil && !late && e.quorumMetLocked(b) {
		after = e.cfg.Complete(round, b, b.Size() < len(e.cfg.Members))
	}
	e.unlockThen(after)
	return b, late, err
}

// unlockThen releases the lock and runs the work a Complete hook deferred
// until then, if any.
func (e *Engine) unlockThen(after func()) {
	e.mu.Unlock()
	if after != nil {
		after()
	}
}

// Submit is Add followed by the wait every ratio-answering owner performs:
// it blocks until the round's barrier resolves — completed, degraded by its
// deadline, abandoned, failed, or shut down. late reports that the censuses
// did not make it into the round's completion (the round had already
// completed, or its completion was in flight and has now finished): the
// owner resolves them its own way. placed, when non-nil, runs outside the
// lock once the censuses are on their barrier, before the wait (not when
// they are late). Takes the lock.
func (e *Engine) Submit(round int, censuses []transport.Census, placed func()) (late bool, err error) {
	b, late, err := e.add(round, censuses, true)
	if b == nil {
		return late, err
	}
	if placed != nil && !late {
		placed()
	}
	return e.wait(b, late)
}

// wait blocks a waiter add counted on b until b resolves or the owner
// closes, then lets go of b. Takes the lock.
func (e *Engine) wait(b *Barrier, late bool) (_ bool, err error) {
	select {
	case <-b.wake:
		e.mu.Lock()
		err = b.Err
	case <-e.cfg.Closed:
		e.mu.Lock()
		if b.resolved {
			<-b.wake // the token resolve counted for this waiter
		}
		late, err = false, transport.ErrClosed
	}
	b.waiters--
	e.letGo(b)
	e.mu.Unlock()
	return late, err
}

// Ratio returns one member's current sharing ratio. Takes the lock.
func (e *Engine) Ratio(edge int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Ratio(edge)
}

// RatioBatch answers censuses with each member's current sharing ratio
// under the step-② reply convention (Round = round + 1, edges echoed in
// request order — the exchange's identity), into reply's own slices, grown
// when short. Takes the lock.
func (e *Engine) RatioBatch(reply *transport.RatioBatch, round int, censuses []transport.Census) {
	n := len(censuses)
	reply.Round, reply.Edges, reply.X = round+1, slices.Grow(reply.Edges[:0], n)[:n], slices.Grow(reply.X[:0], n)[:n]
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range censuses {
		reply.Edges[i] = censuses[i].Edge
		reply.X[i] = e.cfg.Ratio(censuses[i].Edge)
	}
}

// expire is a barrier's deadline: unless the barrier resolved or froze
// while the timer waited on the lock, it completes degraded. A firing left
// over from the barrier's last round finds it idle, or open again with its
// new deadline still ahead.
func (e *Engine) expire(b *Barrier) {
	e.mu.Lock()
	var after func()
	if e.rounds[b.round] == b && !b.Frozen && !b.due.IsZero() && !time.Now().Before(b.due) {
		after = e.cfg.Complete(b.round, b, true)
	}
	e.unlockThen(after)
}

// completeBestLocked completes the most advanced pending barrier that is
// not frozen and (unless force) meets the quorum; its release sweeps the
// stale ones.
func (e *Engine) completeBestLocked(force bool) (after func()) {
	best := -1
	for round, b := range e.rounds {
		if round > best && !b.Frozen && (force || e.quorumMetLocked(b)) {
			best = round
		}
	}
	if best < 0 {
		return nil
	}
	b := e.rounds[best]
	return e.cfg.Complete(best, b, b.Size() < len(e.cfg.Members))
}

// Drain completes the most advanced pending barrier with whatever censuses
// it holds — the graceful-shutdown step before a final checkpoint. Takes
// the lock.
func (e *Engine) Drain() {
	e.mu.Lock()
	e.logf("%s: draining %d pending rounds", e.cfg.Name, len(e.rounds))
	e.unlockThen(e.completeBestLocked(true))
}

// Release resolves round as completed: the watermark advances, b's waiters
// wake, and every pending barrier the new watermark strands is evicted
// with ErrRoundAbandoned (an edge that died mid-round must not leak its
// half-filled barrier). The owner must have folded the round first —
// waiters read the post-round state the moment they wake — and journaled
// it, unless its members re-send what a crash would lose (the cloud's full
// rounds, DESIGN §10.2); it may have set b.Err (a fold that failed still
// consumes its round; its waiters see the error). Unless a waiter or a
// freeze holds b, the kernel reuses it from here on.
func (e *Engine) Release(round int, b *Barrier, degraded bool) {
	c := e.cfg.Counters
	b.resolve(b.Err)
	delete(e.rounds, round)
	e.Advance(round)
	c.Rounds.Inc()
	c.RoundDuration.Observe(time.Since(b.Opened).Seconds())
	if degraded {
		c.Degraded.Inc()
		e.logf("%s: round %d completed degraded with %d/%d members", e.cfg.Name, round, b.Size(), len(e.cfg.Members))
		if round == e.resent {
			e.logf("%s: round %d, the first after recovery, may differ from a ratio answered for it before the crash", e.cfg.Name, round)
		}
	}
	b.Span.End(obs.A("degraded", degraded), obs.A("regions", b.Size()), obs.A("of", len(e.cfg.Members)))
	for r, old := range e.rounds {
		if r > e.latest {
			continue
		}
		old.resolve(fmt.Errorf("%w: round %d superseded by round %d", ErrRoundAbandoned, r, round))
		delete(e.rounds, r)
		c.Abandoned.Inc()
		old.Span.End(obs.A("abandoned", true), obs.A("superseded_by", round))
		e.letGo(old)
	}
	e.letGo(b)
}

// Fail resolves round's barrier with err without advancing the watermark
// (a shard's upstream forward failed; the submitting edges will redial and
// re-open the round).
func (e *Engine) Fail(round int, b *Barrier, err error) {
	b.resolve(err)
	if e.rounds[round] == b {
		delete(e.rounds, round)
	}
	b.Span.End(obs.A("failed", err.Error()))
	e.letGo(b)
}

// Stop shuts the kernel down: every pending barrier fails with
// transport.ErrClosed, every lease timer stops, and later submissions and
// renewals are refused.
func (e *Engine) Stop() {
	e.stopped = true
	for round, b := range e.rounds {
		b.resolve(transport.ErrClosed)
		delete(e.rounds, round)
		b.Span.End(obs.A("closed", true))
		e.letGo(b)
	}
	for i := range e.roster {
		if t := e.roster[i].lease.timer; t != nil {
			t.Stop()
		}
	}
}

// leaseEntry tracks one member's lease. The timer, nil until the first
// renewal, fires at expiry and evicts the member from the quorum; a renewal
// pushes expiry out and re-arms it.
type leaseEntry struct {
	expiry time.Time
	timer  *time.Timer
	live   bool
}

// Renew registers or renews a member's lease: for ttl the member counts
// toward every barrier's quorum. When the lease lapses the member is
// evicted — pending barriers then complete as soon as all remaining live
// members have reported, instead of waiting out the round deadline — and
// the next renewal re-admits it. The first renewal switches the kernel from
// the all-members barrier to the lease-defined quorum; deployments that
// never send heartbeats keep the original behavior. After a recovery (see
// Recovered) the first renewal leases every other member for the same ttl,
// as if each had renewed at once. Takes the lock.
func (e *Engine) Renew(edge int, ttl time.Duration) error {
	if !e.Owns(edge) {
		return fmt.Errorf("%s: lease from edge %d, which is not a member", e.cfg.Name, edge)
	}
	if ttl <= 0 {
		return fmt.Errorf("%s: lease TTL %v must be positive", e.cfg.Name, ttl)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return transport.ErrClosed
	}
	if !e.leasing && e.resent >= 0 {
		for _, id := range e.cfg.Members {
			if id != edge {
				e.leaseLocked(id, ttl)
			}
		}
	}
	e.leasing = true
	e.leaseLocked(edge, ttl)
	e.cfg.Counters.LeaseRenewals.Inc()
	return nil
}

// leaseLocked makes edge's lease live for ttl from now. Called with the lock
// held.
func (e *Engine) leaseLocked(edge int, ttl time.Duration) {
	l := &e.roster[edge].lease
	if l.timer == nil {
		l.timer = time.AfterFunc(ttl, func() { e.expireLease(edge) })
	} else {
		if !l.live {
			e.logf("%s: edge %d re-admitted to quorum", e.cfg.Name, edge)
		}
		l.timer.Reset(ttl)
	}
	if !l.live {
		e.live++
	}
	l.live = true
	l.expiry = time.Now().Add(ttl)
	e.cfg.Counters.LeasesLive.Set(float64(e.live))
}

// LiveLeases returns the ids of members currently holding a live lease, in
// ascending order. Takes the lock.
func (e *Engine) LiveLeases() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ids []int
	for id := range e.roster {
		if e.roster[id].lease.live {
			ids = append(ids, id)
		}
	}
	return ids
}

// expireLease runs when a member's lease timer fires: unless the lease was
// renewed while the callback waited on the lock, the member is evicted from
// the quorum and the pending barriers are re-checked — the healthy members
// may now complete without waiting for the round deadline.
func (e *Engine) expireLease(edge int) {
	e.mu.Lock()
	l := &e.roster[edge].lease
	if e.stopped || !l.live {
		e.mu.Unlock()
		return
	}
	if remaining := time.Until(l.expiry); remaining > 0 {
		// Renewed between the timer firing and this callback taking the
		// lock: re-arm for the true expiry.
		l.timer.Reset(remaining)
		e.mu.Unlock()
		return
	}
	l.live = false
	e.live--
	e.cfg.Counters.LeaseEvictions.Inc()
	e.cfg.Counters.LeasesLive.Set(float64(e.live))
	e.logf("%s: lease of edge %d expired, evicting from quorum", e.cfg.Name, edge)
	e.unlockThen(e.completeBestLocked(false))
}

// Recovered marks round as the first after a recovery: it may have been
// answered before a crash lost it, and only the members' re-sends rebuild
// it. So no lease quorum completes it before every member has had one lease
// TTL to re-send — the first renewal leases the others too (see Renew) —
// and a degraded completion of it is logged as possibly differing from the
// lost answer. Called with the lock held.
func (e *Engine) Recovered(round int) { e.resent = round }

// quorumMetLocked reports whether b can complete: every member reported,
// or — once leases are in use — every member holding a live lease reported.
// A member reporting without a lease still counts toward its own barrier;
// it just cannot be waited on after its lease lapses.
func (e *Engine) quorumMetLocked(b *Barrier) bool {
	if b.Size() >= len(e.cfg.Members) {
		return true
	}
	if !e.leasing || b.Size() == 0 {
		return false
	}
	for id := range e.roster {
		if e.roster[id].lease.live && b.counts[id] == nil {
			return false
		}
	}
	return true
}
