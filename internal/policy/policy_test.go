package policy

import (
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/optimize"
)

// fullGraph mirrors the test graph used in package game.
type fullGraph struct {
	m     int
	selfW float64
}

func (g fullGraph) M() int { return g.m }
func (g fullGraph) Gamma(i, j int) float64 {
	if i < 0 || i >= g.m || j < 0 || j >= g.m {
		return 0
	}
	if i == j {
		return g.selfW
	}
	if g.m == 1 {
		return 0
	}
	return (1 - g.selfW) / float64(g.m-1)
}
func (g fullGraph) Neighbors(i int) []int {
	var out []int
	for j := 0; j < g.m; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

func testModel(t *testing.T, regions int, beta float64) *game.Model {
	t.Helper()
	selfW := 1.0
	if regions > 1 {
		selfW = 0.8
	}
	betas := make([]float64, regions)
	for i := range betas {
		betas[i] = beta
	}
	m, err := game.NewModel(lattice.PaperPayoffs(), fullGraph{m: regions, selfW: selfW}, betas)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewUniformFieldValidation(t *testing.T) {
	if _, err := NewUniformField(0, []float64{1}, 0.01); err == nil {
		t.Error("zero regions must error")
	}
	if _, err := NewUniformField(1, []float64{-0.1}, 0.01); err == nil {
		t.Error("negative target must error")
	}
	if _, err := NewUniformField(1, []float64{0.8, 0.8}, 0.01); err == nil {
		t.Error("targets summing beyond 1 must error")
	}
	if _, err := NewUniformField(1, []float64{0.5}, -0.1); err == nil {
		t.Error("negative eps must error")
	}
	f, err := NewUniformField(2, []float64{0.65, 0, 0, 0, 0.25, 0, 0.05, 0.05}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if f.M() != 2 || f.K() != 8 {
		t.Errorf("field shape %dx%d", f.M(), f.K())
	}
	iv := f.P[0][0]
	if math.Abs(iv.Lo-0.63) > 1e-12 || math.Abs(iv.Hi-0.67) > 1e-12 {
		t.Errorf("interval for p1 = %v", iv)
	}
	// Clamping at the boundary: target 0 with eps gives [0, eps].
	if f.P[0][1].Lo != 0 || math.Abs(f.P[0][1].Hi-0.02) > 1e-12 {
		t.Errorf("interval for p2 = %v", f.P[0][1])
	}
}

func TestFieldConverged(t *testing.T) {
	f, err := NewUniformField(1, []float64{0.5, 0.5, 0, 0, 0, 0, 0, 0}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := game.NewUniformState(1, 8, 0.5)
	ok, short := f.Converged(s)
	if ok {
		t.Error("uniform distribution should not satisfy a 50/50 target")
	}
	if short <= 0 {
		t.Error("shortfall must be positive when unconverged")
	}
	copy(s.P[0], []float64{0.52, 0.47, 0.01, 0, 0, 0, 0, 0})
	ok, short = f.Converged(s)
	if !ok || short != 0 {
		t.Errorf("state within tolerance reported unconverged (short %f)", short)
	}
}

func TestFreeFieldAlwaysConverged(t *testing.T) {
	f := NewFreeField(2, 8)
	s := game.NewUniformState(2, 8, 0.3)
	if ok, _ := f.Converged(s); !ok {
		t.Error("free field must always be converged")
	}
	m := testModel(t, 2, 2)
	if err := f.Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestFieldValidate(t *testing.T) {
	m := testModel(t, 2, 2)
	short := NewFreeField(1, 8)
	if err := short.Validate(m); err == nil {
		t.Error("region count mismatch must error")
	}
	wrongK := NewFreeField(2, 5)
	if err := wrongK.Validate(m); err == nil {
		t.Error("decision count mismatch must error")
	}
	empty := NewFreeField(2, 8)
	empty.P[0][0] = optimize.EmptyInterval()
	if err := empty.Validate(m); err == nil {
		t.Error("empty interval must error")
	}
}

func TestNewFDSValidation(t *testing.T) {
	m := testModel(t, 1, 2)
	f := NewFreeField(1, 8)
	if _, err := NewFDS(nil, f, 0.1); err == nil {
		t.Error("nil model must error")
	}
	if _, err := NewFDS(m, f, 0); err == nil {
		t.Error("zero lambda must error")
	}
	if _, err := NewFDS(m, f, 1.5); err == nil {
		t.Error("lambda > 1 must error")
	}
	if _, err := NewFDS(m, NewFreeField(3, 8), 0.1); err == nil {
		t.Error("mismatched field must error")
	}
	fds, err := NewFDS(m, f, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fds.UpdateRatios(game.NewUniformState(2, 8, 0.5)); err == nil {
		t.Error("a state of another region count must error")
	}
}

// logitEquilibriumAt computes the equilibrium distribution of a model at a
// fixed sharing ratio — used to construct reachable targets.
func logitEquilibriumAt(t *testing.T, m *game.Model, x float64) *game.State {
	t.Helper()
	d, err := game.NewLogitDynamics(m, 0.15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := game.NewUniformState(m.M(), m.K(), x)
	if _, err := d.Equilibrium(s, 1e-10, 10000); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFDSSteersToReachableTarget is the core closed-loop scenario: the
// target field is the logit equilibrium at x* = 0.85; the system starts at
// the x = 0.15 equilibrium. FDS must raise the ratio and converge the
// distribution into the field.
func TestFDSSteersToReachableTarget(t *testing.T) {
	m := testModel(t, 1, 4)
	targetState := logitEquilibriumAt(t, m, 0.85)
	eps := 0.03
	field, err := NewUniformField(1, targetState.P[0], eps)
	if err != nil {
		t.Fatal(err)
	}

	fds, err := NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := game.NewLogitDynamics(m, 0.15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	start := logitEquilibriumAt(t, m, 0.15)
	res, err := fds.Shape(d, start, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("FDS failed to converge in 500 rounds; shortfall %f, final x %f, final p %v",
			res.Shortfall, start.X[0], start.P[0])
	}
	if start.X[0] <= 0.15 {
		t.Errorf("FDS should have raised the sharing ratio, final x = %f", start.X[0])
	}
	if res.Rounds <= 0 {
		t.Errorf("convergence cannot be instant from the wrong equilibrium, rounds = %d", res.Rounds)
	}
}

// TestFDSLambdaLimitsRatioSpeed: per-round ratio change never exceeds
// Lambda.
func TestFDSLambdaLimitsRatioSpeed(t *testing.T) {
	m := testModel(t, 1, 4)
	targetState := logitEquilibriumAt(t, m, 0.9)
	field, err := NewUniformField(1, targetState.P[0], 0.03)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.05
	fds, err := NewFDS(m, field, lambda)
	if err != nil {
		t.Fatal(err)
	}
	d, err := game.NewLogitDynamics(m, 0.15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	start := logitEquilibriumAt(t, m, 0.1)
	res, err := fds.Shape(d, start, 300)
	if err != nil {
		t.Fatal(err)
	}
	for tIdx := 1; tIdx < len(res.RatioTrace); tIdx++ {
		dx := math.Abs(res.RatioTrace[tIdx][0] - res.RatioTrace[tIdx-1][0])
		if dx > lambda+1e-9 {
			t.Fatalf("round %d ratio jumped %f > lambda %f", tIdx, dx, lambda)
		}
	}
}

// TestFDSBeatsWrongFixedRatio: from the same start, the fixed-ratio
// baseline at the wrong x never converges while FDS does — the Fig. 10
// contrast.
func TestFDSBeatsWrongFixedRatio(t *testing.T) {
	m := testModel(t, 1, 4)
	targetState := logitEquilibriumAt(t, m, 0.85)
	field, err := NewUniformField(1, targetState.P[0], 0.02)
	if err != nil {
		t.Fatal(err)
	}

	mkDyn := func() *game.LogitDynamics {
		d, err := game.NewLogitDynamics(m, 0.15, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	baselineStart := logitEquilibriumAt(t, m, 0.15)
	baseRes, err := RunFixedRatio(mkDyn(), baselineStart, field, 200)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.Converged {
		t.Fatal("baseline at x=0.15 should not reach the x=0.85 equilibrium field")
	}

	fds, err := NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	fdsStart := logitEquilibriumAt(t, m, 0.15)
	fdsRes, err := fds.Shape(mkDyn(), fdsStart, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !fdsRes.Converged {
		t.Fatalf("FDS should converge; shortfall %f", fdsRes.Shortfall)
	}
}

// TestFDSConvergenceTimeDecreasesWithEps reproduces the Fig. 9 monotonicity
// on a small instance: looser fields converge no slower.
func TestFDSConvergenceTimeDecreasesWithEps(t *testing.T) {
	m := testModel(t, 1, 4)
	targetState := logitEquilibriumAt(t, m, 0.85)

	rounds := func(eps float64) int {
		field, err := NewUniformField(1, targetState.P[0], eps)
		if err != nil {
			t.Fatal(err)
		}
		fds, err := NewFDS(m, field, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := game.NewLogitDynamics(m, 0.15, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		start := logitEquilibriumAt(t, m, 0.15)
		res, err := fds.Shape(d, start, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("eps=%f did not converge", eps)
		}
		return res.Rounds
	}

	r1 := rounds(0.01)
	r3 := rounds(0.03)
	r5 := rounds(0.05)
	if r3 > r1 || r5 > r3 {
		t.Errorf("convergence time should be non-increasing in eps: %d, %d, %d", r1, r3, r5)
	}
}

func TestShapeValidation(t *testing.T) {
	m := testModel(t, 1, 2)
	field := NewFreeField(1, 8)
	fds, err := NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := game.NewDynamics(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := game.NewUniformState(1, 8, 0.5)
	if _, err := fds.Shape(d, s, 0); err == nil {
		t.Error("zero budget must error")
	}
	other := testModel(t, 1, 2)
	dOther, err := game.NewDynamics(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fds.Shape(dOther, s, 10); err == nil {
		t.Error("mismatched models must error")
	}
	// Free field converges instantly.
	res, err := fds.Shape(d, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 0 {
		t.Errorf("free field should converge in 0 rounds, got %+v", res)
	}
}

func TestRunFixedRatioValidation(t *testing.T) {
	m := testModel(t, 1, 2)
	d, err := game.NewDynamics(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := game.NewUniformState(1, 8, 0.5)
	if _, err := RunFixedRatio(d, s, NewFreeField(1, 8), 0); err == nil {
		t.Error("zero budget must error")
	}
	if _, err := RunFixedRatio(d, s, NewFreeField(2, 8), 10); err == nil {
		t.Error("mismatched field must error")
	}
}

// TestAnalyticLowerBoundProperties: zero for converged states, positive for
// distant targets, and never above the FDS round count (it is a lower
// bound).
func TestAnalyticLowerBound(t *testing.T) {
	m := testModel(t, 1, 4)
	targetState := logitEquilibriumAt(t, m, 0.85)
	field, err := NewUniformField(1, targetState.P[0], 0.02)
	if err != nil {
		t.Fatal(err)
	}

	// Converged state: bound 0.
	lb, capped, err := AnalyticLowerBound(m, field, targetState.Clone(), 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if capped || lb != 0 {
		t.Errorf("bound at target = %d (capped %v), want 0", lb, capped)
	}

	// Distant start: bound positive and below the achieved rounds.
	start := logitEquilibriumAt(t, m, 0.15)
	lb, capped, err = AnalyticLowerBound(m, field, start.Clone(), 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if capped {
		t.Fatal("bound search capped unexpectedly")
	}
	if lb <= 0 {
		t.Error("bound from a distant start must be positive")
	}

	fds, err := NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := game.NewLogitDynamics(m, 0.15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fds.Shape(d, start, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("FDS did not converge")
	}
	if lb > res.Rounds {
		t.Errorf("lower bound %d exceeds achieved rounds %d", lb, res.Rounds)
	}
}

func TestAnalyticLowerBoundValidation(t *testing.T) {
	m := testModel(t, 1, 2)
	field := NewFreeField(1, 8)
	s := game.NewUniformState(1, 8, 0.5)
	if _, _, err := AnalyticLowerBound(m, field, s, 0, 10); err == nil {
		t.Error("zero lambda must error")
	}
	if _, _, err := AnalyticLowerBound(m, field, s, 0.1, 0); err == nil {
		t.Error("zero budget must error")
	}
	if _, _, err := AnalyticLowerBound(m, NewFreeField(2, 8), s, 0.1, 10); err == nil {
		t.Error("mismatched field must error")
	}
}

// TestSubgradientLowerBound on a tiny instance: it must be >= 1 for an
// unconverged start, and <= the analytic bound's achieved trajectory... we
// check consistency: subgradient LB <= FDS rounds.
func TestSubgradientLowerBound(t *testing.T) {
	m := testModel(t, 1, 4)
	targetState := logitEquilibriumAt(t, m, 0.85)
	field, err := NewUniformField(1, targetState.P[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	start := logitEquilibriumAt(t, m, 0.15)

	lb, capped, err := SubgradientLowerBound(m, field, start.Clone(), 0.1, 15, optimize.Options{MaxIters: 800})
	if err != nil {
		t.Fatal(err)
	}
	if capped {
		t.Skip("subgradient search capped; instance harder than expected")
	}
	if lb < 1 {
		t.Errorf("unconverged start must need at least 1 round, got %d", lb)
	}

	fds, err := NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := game.NewLogitDynamics(m, 0.15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fds.Shape(d, start, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged && lb > res.Rounds {
		t.Errorf("subgradient bound %d exceeds achieved rounds %d", lb, res.Rounds)
	}

	// Converged start short-circuits to 0.
	lb0, _, err := SubgradientLowerBound(m, field, targetState.Clone(), 0.1, 5, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lb0 != 0 {
		t.Errorf("bound at target = %d, want 0", lb0)
	}
}
