package policy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// The FDS step as it stood before it linearized only the tracked decisions
// (PR 29): every decision linearized through the one-shot Model.Linearize,
// all four inequalities solved per condition, and every set built,
// intersected and searched by the general path — on plain slices with
// math.Max and math.Min, so no fast path of optimize.Set is under it. It
// survives only as the oracle the controller is held to, bit for bit.

type oracleSet []optimize.Interval

func meet(a, b optimize.Interval) optimize.Interval {
	return optimize.Interval{Lo: math.Max(a.Lo, b.Lo), Hi: math.Min(a.Hi, b.Hi)}
}

// newOracleSet clips to [0,1], drops the empty, sorts stably by Lo and
// merges within 1e-12, as Set.add and Set.normalize do.
func newOracleSet(ivs ...optimize.Interval) oracleSet {
	var kept oracleSet
	for _, iv := range ivs {
		if iv = meet(iv, optimize.Unit()); !iv.Empty() {
			kept = append(kept, iv)
		}
	}
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].Lo < kept[b].Lo })
	var merged oracleSet
	for _, iv := range kept {
		if n := len(merged); n > 0 && iv.Lo <= merged[n-1].Hi+1e-12 {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

func (s oracleSet) intersect(other oracleSet) oracleSet {
	var out []optimize.Interval
	for _, a := range s {
		for _, b := range other {
			out = append(out, meet(a, b))
		}
	}
	return newOracleSet(out...)
}

func (s oracleSet) contains(x float64) bool {
	for _, iv := range s {
		if iv.Contains(x) {
			return true
		}
	}
	return false
}

func (s oracleSet) nearest(x float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	best, bestD := 0.0, math.Inf(1)
	for _, iv := range s {
		c := math.Max(iv.Lo, math.Min(iv.Hi, x))
		if d := math.Abs(c - x); d < bestD {
			bestD, best = d, c
		}
	}
	return best, true
}

func oracleGE(a, b float64) optimize.Interval {
	const eps = 1e-12
	switch {
	case math.Abs(b) <= eps:
		if a >= -eps {
			return optimize.Unit()
		}
		return optimize.EmptyInterval()
	case b > 0:
		return meet(optimize.Interval{Lo: math.Max(0, -a/b), Hi: 1}, optimize.Unit())
	default:
		return meet(optimize.Interval{Lo: 0, Hi: math.Min(1, -a/b)}, optimize.Unit())
	}
}

func oracleLE(a, b float64) optimize.Interval { return oracleGE(-a, -b) }

func oracleConditionSet(c game.LinearCoeffs, p float64, want optimize.Interval) oracleSet {
	a1, a2 := c.Alpha1, c.Alpha2
	sum := a1.Add(a2)
	sumGE, sumLE := oracleGE(sum.A, sum.B), oracleLE(sum.A, sum.B)
	a2GE, a2LE := oracleGE(a2.A, a2.B), oracleLE(a2.A, a2.B)
	switch {
	case want.Contains(1):
		atP := oracleGE(a1.A*p+a2.A, a1.B*p+a2.B)
		return newOracleSet(meet(sumGE, a2GE), meet(meet(sumGE, a2LE), atP))
	case want.Contains(0):
		atP := oracleLE(a1.A*p+a2.A, a1.B*p+a2.B)
		return newOracleSet(meet(sumLE, a2LE), meet(meet(sumGE, a2LE), atP))
	default:
		lo := oracleGE(a1.A*want.Lo+a2.A, a1.B*want.Lo+a2.B)
		hi := oracleLE(a1.A*want.Hi+a2.A, a1.B*want.Hi+a2.B)
		return newOracleSet(meet(meet(meet(sumLE, a2GE), lo), hi))
	}
}

func oracleGrowthExtremeSet(c game.LinearCoeffs, p float64, up bool) oracleSet {
	slope := c.Alpha1.B*p + c.Alpha2.B
	hi := slope > 0
	if !up {
		hi = !hi
	}
	if hi {
		return newOracleSet(optimize.Interval{Lo: 1, Hi: 1})
	}
	return newOracleSet(optimize.Interval{Lo: 0, Hi: 0})
}

// oracleFDS is a best-effort controller (the default) with its own stall
// memory. freeNudges counts the nudges whose worst share was a free one.
type oracleFDS struct {
	model         *game.Model
	field         *Field
	lambda        float64
	patience      int
	lastShortfall []float64
	stallRounds   []int
	freeNudges    int
}

func newOracleFDS(f *FDS) *oracleFDS {
	return &oracleFDS{
		model: f.model, field: f.Field(), lambda: f.Lambda, patience: f.StallPatience,
		lastShortfall: make([]float64, f.model.M()), stallRounds: make([]int, f.model.M()),
	}
}

func (o *oracleFDS) update(t *testing.T, s *game.State) []bool {
	out := make([]bool, len(s.X))
	for i := range out {
		out[i] = o.step(t, s, i)
	}
	return out
}

func (o *oracleFDS) step(t *testing.T, s *game.State, i int) bool {
	m := o.model
	coeffs, err := m.Linearize(s, i)
	if err != nil {
		t.Fatal(err)
	}
	type cond struct {
		set  oracleSet
		dist float64
	}
	var conds []cond
	for k := 0; k < m.K(); k++ {
		want := o.field.P[i][k]
		if want.Lo <= 0 && want.Hi >= 1 {
			continue
		}
		p := s.P[i][k]
		d := shortfall(p, want)
		set := oracleConditionSet(coeffs[k], p, want)
		if len(set) == 0 && d > 0 {
			set = oracleGrowthExtremeSet(coeffs[k], p, p < want.Lo)
		}
		conds = append(conds, cond{set: set, dist: d})
	}
	sort.SliceStable(conds, func(a, b int) bool { return conds[a].dist > conds[b].dist })
	xSet := newOracleSet(optimize.Unit())
	for _, c := range conds {
		if next := xSet.intersect(c.set); len(next) > 0 {
			xSet = next
		}
	}
	worstDist, worstK := 0.0, -1
	for k := 0; k < m.K(); k++ {
		if d := shortfall(s.P[i][k], o.field.P[i][k]); d > worstDist {
			worstDist, worstK = d, k
		}
	}
	x := s.X[i]
	if len(xSet) == 0 {
		o.noteProgress(i, worstDist)
		return false
	}
	if xSet.contains(x) {
		if o.stalled(i, worstDist) && worstK >= 0 {
			want := o.field.P[i][worstK]
			nudge := oracleGrowthExtremeSet(coeffs[worstK], s.P[i][worstK], s.P[i][worstK] < want.Lo)
			if target, ok := nudge.nearest(x); ok {
				s.X[i] = clamp01(x + clampStep(target-x, o.lambda))
				if want.Lo <= 0 && want.Hi >= 1 {
					o.freeNudges++
				}
			}
		}
		return true
	}
	o.noteProgress(i, worstDist)
	target, _ := xSet.nearest(x)
	s.X[i] = clamp01(x + clampStep(target-x, o.lambda))
	return false
}

func (o *oracleFDS) noteProgress(i int, worstDist float64) {
	if worstDist < o.lastShortfall[i]-1e-9 || worstDist == 0 {
		o.stallRounds[i] = 0
	}
	o.lastShortfall[i] = worstDist
}

func (o *oracleFDS) stalled(i int, worstDist float64) bool {
	if o.patience <= 0 || worstDist == 0 {
		o.stallRounds[i] = 0
		o.lastShortfall[i] = worstDist
		return false
	}
	if worstDist < o.lastShortfall[i]-1e-9 {
		o.stallRounds[i] = 0
	} else {
		o.stallRounds[i]++
	}
	o.lastShortfall[i] = worstDist
	if o.stallRounds[i] >= o.patience {
		o.stallRounds[i] = 0
		return true
	}
	return false
}

// randomField mixes free, one-sided (either side) and two-sided decisions.
// Regions i%7 == 0 track none, i%7 == 1 exactly decision 0, i%7 == 2 all;
// the others draw each decision.
func randomField(rng *rand.Rand, m, k int) *Field {
	f := NewFreeField(m, k)
	for i := range f.P {
		for kk := range f.P[i] {
			kind := rng.Intn(4) // 0 free, 1 at most, 2 at least, 3 a band
			switch {
			case i%7 == 0 || i%7 == 1 && kk != 0:
				kind = 0
			case (i%7 == 1 || i%7 == 2) && kind == 0:
				kind = 1 + rng.Intn(3)
			}
			lo := 0.05 + 0.6*rng.Float64()
			switch kind {
			case 1:
				f.P[i][kk] = optimize.Interval{Lo: 0, Hi: lo}
			case 2:
				f.P[i][kk] = optimize.Interval{Lo: lo, Hi: 1}
			case 3:
				f.P[i][kk] = optimize.Interval{Lo: lo, Hi: lo + 0.05 + 0.25*rng.Float64()}
			}
		}
	}
	return f
}

// overOne is the smallest share above 1: the sum a normalization can leave
// on a lone share.
var overOne = math.Nextafter(1, 2)

// trapRow makes region i the nudge trap: decision 0 tracked "at most 0.2"
// and met, decision 3 free, and the whole share on decision 3 an ulp past
// 1 — so the worst shortfall, and the share a stall nudges, is a free one.
func trapRow(f *Field, i int) {
	for k := range f.P[i] {
		f.P[i][k] = optimize.Unit()
	}
	f.P[i][0].Hi = 0.2
}

func trapState(s *game.State, i int) {
	for k := range s.P[i] {
		s.P[i][k] = 0
	}
	s.P[i][3] = overOne
}

func sameCoeffs(a, b game.LinearCoeffs) bool {
	for _, pair := range [][2]float64{{a.Alpha1.A, b.Alpha1.A}, {a.Alpha1.B, b.Alpha1.B}, {a.Alpha2.A, b.Alpha2.A}, {a.Alpha2.B, b.Alpha2.B}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	return true
}

// TestNudgeLinearizesFreeWorstShare springs the trap on purpose: a region
// whose worst share is a free one an ulp past 1 stalls, and the
// linearizer's slot for that decision holds another region's coefficients
// when the region is stepped. The nudge must read the region's own: after
// the step the slot holds Model.Linearize's coefficients bit for bit. (At a
// share past 1 every real coefficient set points the nudge the same way,
// so the ratio alone could not tell a stale read from a fresh one.)
func TestNudgeLinearizesFreeWorstShare(t *testing.T) {
	const m, region = 3, 1
	model, err := game.NewModel(lattice.PaperPayoffs(), ringGraph{m}, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	field := NewFreeField(m, model.K())
	trapRow(field, region)
	fds, err := NewFDS(model, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	fds.Instrument(o)
	s := game.NewUniformState(m, model.K(), 0.5)
	reshuffle(rand.New(rand.NewSource(2)), s)
	trapState(s, region)
	fresh, err := model.Linearize(s, region)
	if err != nil {
		t.Fatal(err)
	}
	// A ratio the tracked share's condition set admits, so the step takes
	// the stall branch; stall memory one unimproved round from patience.
	if set := condSet(fresh[0], 0, field.P[region][0]); !set.Empty() {
		s.X[region], _ = set.Min()
	}
	worst := shortfall(overOne, field.P[region][3])
	fds.lastShortfall[region], fds.stallRounds[region] = worst, fds.StallPatience-1

	fds.lin.Tabulate(s)
	fds.lin.Region(s, 0, []int{3}) // region 0's decision 3 into the slot
	x := s.X[region]
	if !fds.step(s, region) {
		t.Fatal("the trap region did not satisfy its condition set")
	}
	if n := o.Counter("fds_stall_nudges_total", "").Value(); n != 1 || s.X[region] == x {
		t.Fatalf("no nudge: %d nudges, x %v -> %v", n, x, s.X[region])
	}
	if got := fds.lin.Region(s, region, nil)[3]; !sameCoeffs(got, fresh[3]) {
		t.Errorf("nudge read %v for the free worst share, Model.Linearize has %v", got, fresh[3])
	}
}

// TestTrackedLinearizationMatchesLinearize: on random rings, states and
// fields (none, one, some or all decisions tracked; a free share past 1 in
// some regions), the controller's linearizer asked for the tracked
// decisions only gives each of them Model.Linearize's coefficients bit for
// bit.
func TestTrackedLinearizationMatchesLinearize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(14)
		betas := make([]float64, m)
		for i := range betas {
			betas[i] = 0.5 + 3.5*rng.Float64()
		}
		model, err := game.NewModel(lattice.PaperPayoffs(), ringGraph{m}, betas)
		if err != nil {
			t.Fatal(err)
		}
		field := randomField(rng, m, model.K())
		s := game.NewUniformState(m, model.K(), 0)
		reshuffle(rng, s)
		for i := range s.X {
			s.X[i] = rng.Float64()
			if i%5 == 3 {
				trapRow(field, i)
				trapState(s, i)
			}
		}
		lin := model.NewLinearizer()
		lin.Tabulate(s)
		for i := 0; i < m; i++ {
			var tracked []int
			for k, want := range field.P[i] {
				if !free(want) {
					tracked = append(tracked, k)
				}
			}
			got := lin.Region(s, i, tracked)
			want, err := model.Linearize(s, i)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tracked {
				if !sameCoeffs(got[k], want[k]) {
					t.Fatalf("trial %d M=%d region %d decision %d: tracked %v, Linearize %v", trial, m, i, k, got[k], want[k])
				}
			}
		}
	}
}

// TestUpdateRatiosMatchesOracle runs the controller and the oracle side by
// side for 200 closed-loop rounds on the M=1024 ring — under the band, the
// two-sided and a random mixed field with nudge-trap regions — with the
// field edited through FDS.Field() halfway, and requires the same report
// and ratio bits every round and the same stall memory at the end.
func TestUpdateRatiosMatchesOracle(t *testing.T) {
	const m, rounds = 1024, 200
	model, fields := ringFixture(t, m)
	rng := rand.New(rand.NewSource(5))
	mixed := randomField(rng, m, model.K())
	for i := 3; i < m; i += 5 {
		trapRow(mixed, i)
	}
	fields["mixed"] = mixed
	logit, err := game.NewLogitDynamics(model, 0.15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"band", "two-sided", "mixed"} {
		fds, err := NewFDS(model, fields[name], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		fds.Instrument(o)
		oracle := newOracleFDS(fds)
		s := game.NewUniformState(m, model.K(), 0.2)
		reshuffle(rng, s)
		traps := func(s *game.State) {
			if name == "mixed" {
				for i := 3; i < m; i += 5 {
					trapState(s, i)
				}
			}
		}
		traps(s)
		ref := s.Clone()
		for r := 0; r < rounds; r++ {
			if r == rounds/2 {
				// Free decision 1 where it was tracked and track it where
				// it was free; both controllers read the one field.
				for i := 0; i < m; i += 3 {
					if row := fds.Field().P[i]; free(row[1]) {
						row[1] = optimize.Interval{Lo: 0.05, Hi: 0.4}
					} else {
						row[1] = optimize.Unit()
					}
				}
			}
			got, err := fds.UpdateRatios(s)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.update(t, ref)
			for i := range want {
				if got[i] != want[i] || math.Float64bits(s.X[i]) != math.Float64bits(ref.X[i]) {
					t.Fatalf("%s field, round %d, region %d: satisfied %v x %v; oracle %v x %v", name, r, i, got[i], s.X[i], want[i], ref.X[i])
				}
			}
			if err := logit.Step(s); err != nil {
				t.Fatal(err)
			}
			if err := logit.Step(ref); err != nil {
				t.Fatal(err)
			}
			traps(s)
			traps(ref)
		}
		for i := 0; i < m; i++ {
			if math.Float64bits(fds.lastShortfall[i]) != math.Float64bits(oracle.lastShortfall[i]) || fds.stallRounds[i] != oracle.stallRounds[i] {
				t.Fatalf("%s field, region %d: stall memory %v/%d, oracle %v/%d", name, i,
					fds.lastShortfall[i], fds.stallRounds[i], oracle.lastShortfall[i], oracle.stallRounds[i])
			}
		}
		if n := o.Histogram("fds_update_duration_seconds", "", nil).Count(); n != rounds {
			t.Errorf("%s field: fds_update_duration_seconds observed %d sweeps, want %d", name, n, rounds)
		}
		nudges := o.Counter("fds_stall_nudges_total", "").Value()
		t.Logf("%s field: %d nudges, %d of them on a free share", name, nudges, oracle.freeNudges)
		if name == "mixed" && oracle.freeNudges == 0 {
			t.Error("no stall nudge landed on a free share: the trap was never exercised")
		}
	}
}
