package policy

import (
	"fmt"
	"time"

	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// FDS is the Fast Decision Shaping algorithm (Algorithm 2). Each round it
// re-linearizes the replicator dynamics of every region, solves — in closed
// form, since alpha1 and alpha2 are affine in the region's own sharing
// ratio — for the set X_i of ratios that put each tracked decision share in
// a convergence case flowing toward its desired field, intersects those sets
// over the decisions, and moves x_i toward the feasible set by at most
// Lambda per round (Eq. 13).
//
// Deviations from the pseudo-code, both documented in DESIGN.md §3: we use
// the corrected Case-3a/3b orientation, and when x_i must move we step
// toward the *nearest* point of X_i rather than min{X_i} (identical when
// X_i is a single interval, weakly faster otherwise).
type FDS struct {
	model *game.Model
	field *Field
	// Lambda is the maximum per-round change of each sharing ratio.
	Lambda float64
	// BestEffort controls what happens when the per-decision condition sets
	// have an empty intersection (possible, since one scalar ratio steers K
	// coupled shares): when true (the default for Shape), decisions are
	// dropped greedily from the intersection, farthest-from-target last, so
	// the ratio still makes progress on the shares that matter most.
	BestEffort bool
	// StallPatience is the number of consecutive rounds a region may sit
	// out of band without improving while its linearized conditions claim
	// the current ratio is fine, before the controller nudges the ratio in
	// the direction that helps the worst share. The replicator-based
	// linearization can declare satisfaction at a ratio whose true
	// (smoothed) fixed point is slightly outside the band; the nudge
	// escapes that plateau. Zero disables stall detection (pure
	// Algorithm 2).
	StallPatience int

	// Controller state for stall detection, reset by ResetStallState.
	lastShortfall []float64
	stallRounds   []int

	// Scratch UpdateRatios reuses from call to call. The controller is
	// single-caller already (the stall state above), so whoever serializes
	// its calls serializes these too.
	lin       *game.Linearizer
	tracked   []int // the decisions step linearizes: those with a desired interval
	conds     []cond
	order     []int           // step's intersection order: conds indices, most urgent first
	xsets     [2]optimize.Set // step's running intersection and the next one
	satisfied []bool          // UpdateRatios' report
	xs        []float64       // Resweep's Gauss–Seidel view of the ratios

	// Instruments; nil (no-op) until Instrument is called.
	obsv      *obs.Observer
	updates   *obs.Counter   // fds_updates_total
	updateDur *obs.Histogram // fds_update_duration_seconds
	nudges    *obs.Counter   // fds_stall_nudges_total
}

// NewFDS validates inputs and builds the controller.
func NewFDS(m *game.Model, f *Field, lambda float64) (*FDS, error) {
	if m == nil {
		return nil, fmt.Errorf("policy: model must be non-nil")
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("policy: lambda %f outside (0,1]", lambda)
	}
	if err := f.Validate(m); err != nil {
		return nil, err
	}
	return &FDS{
		model:         m,
		field:         f,
		Lambda:        lambda,
		BestEffort:    true,
		StallPatience: 8,
		lastShortfall: make([]float64, m.M()),
		stallRounds:   make([]int, m.M()),
		lin:           m.NewLinearizer(),
		tracked:       make([]int, 0, m.K()),
		conds:         make([]cond, m.K()),
		order:         make([]int, m.K()),
		satisfied:     make([]bool, m.M()),
		xs:            make([]float64, m.M()),
	}, nil
}

// cond is one tracked decision's condition set and how far its share is
// from its target interval.
type cond struct {
	set  optimize.Set
	dist float64
}

// ResetStallState clears the stall-detection memory (call when reusing one
// controller across independent runs).
func (f *FDS) ResetStallState() {
	for i := range f.stallRounds {
		f.stallRounds[i] = 0
		f.lastShortfall[i] = 0
	}
}

// FDSMemory is the controller's cross-round mutable state (the stall
// detector's per-region shortfall and counters), exposed so a coordinator
// checkpoint can restore the controller exactly where it left off.
type FDSMemory struct {
	LastShortfall []float64 `json:"last_shortfall"`
	StallRounds   []int     `json:"stall_rounds"`
}

// Memory snapshots the controller's cross-round state.
func (f *FDS) Memory() FDSMemory {
	var mem FDSMemory
	f.MemoryInto(&mem)
	return mem
}

// MemoryInto is Memory written into mem's own slices, grown when short.
func (f *FDS) MemoryInto(mem *FDSMemory) {
	mem.LastShortfall = append(mem.LastShortfall[:0], f.lastShortfall...)
	mem.StallRounds = append(mem.StallRounds[:0], f.stallRounds...)
}

// SetMemory restores cross-round state captured by Memory on a controller
// with the same region count.
func (f *FDS) SetMemory(mem FDSMemory) error {
	if len(mem.LastShortfall) != len(f.lastShortfall) || len(mem.StallRounds) != len(f.stallRounds) {
		return fmt.Errorf("policy: FDS memory for %d/%d regions, controller has %d",
			len(mem.LastShortfall), len(mem.StallRounds), len(f.lastShortfall))
	}
	copy(f.lastShortfall, mem.LastShortfall)
	copy(f.stallRounds, mem.StallRounds)
	return nil
}

// Field returns the controller's desired field.
func (f *FDS) Field() *Field { return f.field }

// Instrument makes the controller report fds_updates_total,
// fds_stall_nudges_total, fds_update_duration_seconds (one per sweep) and
// Shape spans through o; uninstrumented, it pays nil-checks and a clock read.
func (f *FDS) Instrument(o *obs.Observer) {
	f.obsv = o
	f.updates = o.Counter("fds_updates_total", "FDS ratio-update rounds executed")
	f.updateDur = o.Histogram("fds_update_duration_seconds", "one full FDS sweep over every region", nil)
	f.nudges = o.Counter("fds_stall_nudges_total", "stall-escape ratio nudges applied")
}

// free reports whether a desired interval leaves its share unconstrained.
func free(want optimize.Interval) bool { return want.Lo <= 0 && want.Hi >= 1 }

// conditionSet makes out the set of x values that place decision k of region
// i (current share p, linearized coefficients c) in a case flowing to its
// desired interval. Each case solves only the inequalities it intersects.
func conditionSet(out *optimize.Set, c game.LinearCoeffs, p float64, want optimize.Interval) {
	a1, a2 := c.Alpha1, c.Alpha2
	sum := a1.Add(a2)

	switch {
	case want.Contains(1):
		// Case 1 or Case 3a: growth positive at the current share.
		sumGE := optimize.SolveAffineGE(sum.A, sum.B)
		x1 := sumGE.Intersect(optimize.SolveAffineGE(a2.A, a2.B))
		// Case 3a: unstable rest point below p, i.e. alpha1*p + alpha2 >= 0.
		atP := optimize.SolveAffineGE(a1.A*p+a2.A, a1.B*p+a2.B)
		x3a := sumGE.Intersect(optimize.SolveAffineLE(a2.A, a2.B)).Intersect(atP)
		out.Build(x1, x3a)
	case want.Contains(0):
		// Case 2 or Case 3b.
		a2LE := optimize.SolveAffineLE(a2.A, a2.B)
		x2 := optimize.SolveAffineLE(sum.A, sum.B).Intersect(a2LE)
		atP := optimize.SolveAffineLE(a1.A*p+a2.A, a1.B*p+a2.B)
		x3b := optimize.SolveAffineGE(sum.A, sum.B).Intersect(a2LE).Intersect(atP)
		out.Build(x2, x3b)
	default:
		// Case 4: stable interior rest point inside the desired interval.
		// With alpha1 < 0, p* >= lo <=> alpha1*lo + alpha2 >= 0 and
		// p* <= hi <=> alpha1*hi + alpha2 <= 0.
		lo := optimize.SolveAffineGE(a1.A*want.Lo+a2.A, a1.B*want.Lo+a2.B)
		hi := optimize.SolveAffineLE(a1.A*want.Hi+a2.A, a1.B*want.Hi+a2.B)
		x4 := optimize.SolveAffineLE(sum.A, sum.B).Intersect(optimize.SolveAffineGE(a2.A, a2.B)).Intersect(lo).Intersect(hi)
		out.Build(x4)
	}
}

// UpdateRatios performs one FDS round: it recomputes X_i for every region
// from the current state and moves each x_i toward it by at most Lambda,
// writing the new ratios into s.X — a Gauss–Seidel pass in ascending order,
// region i stepped at the ratios regions < i just moved to. It returns, per
// region, whether the current ratio already satisfied its condition set, in
// the controller's own buffer: valid until the next call.
func (f *FDS) UpdateRatios(s *game.State) ([]bool, error) {
	m := f.model
	if len(s.P) != m.M() || len(s.X) != m.M() {
		return nil, fmt.Errorf("policy: state has %d distributions and %d ratios, model %d regions", len(s.P), len(s.X), m.M())
	}
	f.updates.Inc()
	start := time.Now()
	// The distributions do not change during the sweep: tabulate them once.
	f.lin.Tabulate(s)
	for i := range f.satisfied {
		f.satisfied[i] = f.step(s, i)
	}
	f.updateDur.Observe(time.Since(start).Seconds())
	return f.satisfied, nil
}

// step is region i's share of UpdateRatios. It reads the distributions of i and
// its neighbours (through the linearizer's table, which must hold them), x_i
// and its neighbours' ratios as s.X has them now, and region i's stall
// memory — nothing else, which Resweep rests on. It writes s.X[i] and that
// memory, and reports whether x_i already satisfied its condition set.
func (f *FDS) step(s *game.State, i int) bool {
	p, field := s.P[i], f.field.P[i]

	// The region's shortfall (for stall detection) counts every share; only
	// a share with a desired interval gets a condition set, so only those
	// decisions are linearized.
	worstDist, worstK := 0.0, -1
	tracked := f.tracked[:0]
	for k, want := range field {
		if d := shortfall(p[k], want); d > worstDist {
			worstDist, worstK = d, k
		}
		if !free(want) {
			tracked = append(tracked, k)
		}
	}
	coeffs := f.lin.Region(s, i, tracked)
	conds := f.conds[:len(tracked)]
	for n, k := range tracked {
		c := &conds[n]
		c.dist = shortfall(p[k], field[k])
		conditionSet(&c.set, coeffs[k], p[k], field[k])
		if c.set.Empty() && c.dist > 0 {
			// No ratio places this share in a case flowing to its
			// target under the frozen linearization — typical when the
			// share is near-extinct and its growth rate is negative for
			// every x. Fall back to the ratio extreme that maximizes
			// (if the share must rise) or minimizes (if it must fall)
			// the linearized growth rate alpha1*p + alpha2, so the
			// system is at least steered toward eventual satisfiability.
			g := growthExtreme(coeffs[k], p[k], p[k] < field[k].Lo)
			c.set.Build(optimize.Interval{Lo: g, Hi: g})
		}
	}

	// Intersect most-urgent first so best-effort dropping removes the
	// least-urgent conditions: a stable insertion sort by descending
	// distance, of indices (a cond is a set: moving one copies it).
	order := f.order[:len(conds)]
	for a := range order {
		order[a] = a
		for b := a; b > 0 && conds[order[b]].dist > conds[order[b-1]].dist; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	xSet, next := &f.xsets[0], &f.xsets[1]
	xSet.Build(optimize.Unit())
	for _, a := range order {
		xSet.IntersectInto(&conds[a].set, next)
		if next.Empty() {
			if !f.BestEffort {
				xSet = next
				break
			}
			continue // drop this condition
		}
		xSet, next = next, xSet
	}

	x := s.X[i]
	if xSet.Empty() {
		// No ratio helps under the frozen linearization; hold position.
		f.noteProgress(i, worstDist)
		return false
	}
	if xSet.Contains(x) {
		if f.stalled(i, worstDist) && worstK >= 0 {
			// The linearization says the ratio is fine, but the region
			// has sat out of band without improving: nudge the ratio
			// toward the extreme that raises (or lowers) the worst
			// share's growth rate. The worst share may be a free one
			// whose share rounded past 1, which the sweep above did
			// not linearize: linearize it here.
			c := f.lin.Region(s, i, []int{worstK})[worstK]
			target := growthExtreme(c, p[worstK], p[worstK] < field[worstK].Lo)
			s.X[i] = clamp01(x + clampStep(target-x, f.Lambda))
			f.nudges.Inc()
		}
		return true
	}
	f.noteProgress(i, worstDist)
	target, _ := xSet.Nearest(x)
	s.X[i] = clamp01(x + clampStep(target-x, f.Lambda))
	return false
}

// noteProgress records the region's shortfall and resets its stall counter
// when the shortfall improved.
func (f *FDS) noteProgress(i int, worstDist float64) {
	if worstDist < f.lastShortfall[i]-1e-9 || worstDist == 0 {
		f.stallRounds[i] = 0
	}
	f.lastShortfall[i] = worstDist
}

// stalled updates the stall counter and reports whether the region has been
// stuck for StallPatience rounds.
func (f *FDS) stalled(i int, worstDist float64) bool {
	if f.StallPatience <= 0 || worstDist == 0 {
		f.stallRounds[i] = 0
		f.lastShortfall[i] = worstDist
		return false
	}
	if worstDist < f.lastShortfall[i]-1e-9 {
		f.stallRounds[i] = 0
	} else {
		f.stallRounds[i]++
	}
	f.lastShortfall[i] = worstDist
	if f.stallRounds[i] >= f.StallPatience {
		f.stallRounds[i] = 0
		return true
	}
	return false
}

func clampStep(step, lambda float64) float64 {
	if step > lambda {
		return lambda
	}
	if step < -lambda {
		return -lambda
	}
	return step
}

// growthExtreme returns the ratio that extremizes the linearized growth
// rate (alpha1*p + alpha2)(x), which is affine in x with slope b1*p + b2:
// the maximizing endpoint of [0,1] when up is true, the minimizing one
// otherwise.
func growthExtreme(c game.LinearCoeffs, p float64, up bool) float64 {
	slope := c.Alpha1.B*p + c.Alpha2.B
	if (slope > 0) == up {
		return 1
	}
	return 0
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ShapeResult reports a full FDS run.
type ShapeResult struct {
	// Converged reports whether every share reached its desired interval
	// within the round budget.
	Converged bool
	// Rounds is the number of rounds until convergence (or the budget).
	Rounds int
	// RatioTrace[t][i] is x_i at round t.
	RatioTrace [][]float64
	// Trajectory[t][i][k] is p_{i,k} at round t (including round 0).
	Trajectory [][][]float64
	// Shortfall is the final worst distance from a share to its interval.
	Shortfall float64
}

// Shape runs the closed loop: each round FDS adjusts the sharing ratios,
// then the replicator dynamics advance one round. It stops as soon as every
// share is inside its desired field or after maxRounds.
func (f *FDS) Shape(d game.Stepper, s *game.State, maxRounds int) (*ShapeResult, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("policy: maxRounds must be positive, got %d", maxRounds)
	}
	if d.Model() != f.model {
		return nil, fmt.Errorf("policy: dynamics and FDS use different models")
	}
	span := f.obsv.Span("fds_shape", obs.A("max_rounds", maxRounds))
	res := &ShapeResult{}
	snapshot := func() {
		res.RatioTrace = append(res.RatioTrace, append([]float64(nil), s.X...))
		pt := make([][]float64, len(s.P))
		for i := range s.P {
			pt[i] = append([]float64(nil), s.P[i]...)
		}
		res.Trajectory = append(res.Trajectory, pt)
	}
	snapshot()
	for t := 0; t < maxRounds; t++ {
		if ok, short := f.field.Converged(s); ok {
			res.Converged = true
			res.Rounds = t
			res.Shortfall = short
			span.End(obs.A("converged", true), obs.A("rounds", t))
			return res, nil
		}
		if _, err := f.UpdateRatios(s); err != nil {
			span.End(obs.A("error", err.Error()))
			return nil, err
		}
		if err := d.Step(s); err != nil {
			span.End(obs.A("error", err.Error()))
			return nil, err
		}
		snapshot()
	}
	ok, short := f.field.Converged(s)
	res.Converged = ok
	res.Rounds = maxRounds
	res.Shortfall = short
	span.End(obs.A("converged", ok), obs.A("rounds", maxRounds), obs.A("shortfall", short))
	return res, nil
}
