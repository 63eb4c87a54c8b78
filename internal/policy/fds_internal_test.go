package policy

import (
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/optimize"
)

func TestClampStep(t *testing.T) {
	tests := []struct {
		step, lambda, want float64
	}{
		{0.05, 0.1, 0.05},
		{0.5, 0.1, 0.1},
		{-0.5, 0.1, -0.1},
		{-0.05, 0.1, -0.05},
		{0, 0.1, 0},
	}
	for _, tt := range tests {
		if got := clampStep(tt.step, tt.lambda); got != tt.want {
			t.Errorf("clampStep(%f, %f) = %f, want %f", tt.step, tt.lambda, got, tt.want)
		}
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 || clamp01(0.3) != 0.3 {
		t.Error("clamp01 wrong")
	}
}

// TestGrowthExtremeSet: the fallback points at the ratio extreme that
// extremizes alpha1*p + alpha2.
func TestGrowthExtremeSet(t *testing.T) {
	tests := []struct {
		name   string
		coeffs game.LinearCoeffs
		p      float64
		up     bool
		want   float64
	}{
		{
			name:   "rising share, positive slope -> x=1",
			coeffs: game.LinearCoeffs{Alpha1: game.Affine{B: 0}, Alpha2: game.Affine{B: 1}},
			p:      0.1, up: true, want: 1,
		},
		{
			name:   "rising share, negative slope -> x=0",
			coeffs: game.LinearCoeffs{Alpha1: game.Affine{B: -2}, Alpha2: game.Affine{B: 0.1}},
			p:      0.5, up: true, want: 0,
		},
		{
			name:   "falling share, positive slope -> x=0",
			coeffs: game.LinearCoeffs{Alpha1: game.Affine{B: 0}, Alpha2: game.Affine{B: 1}},
			p:      0.9, up: false, want: 0,
		},
		{
			name:   "falling share, negative slope -> x=1",
			coeffs: game.LinearCoeffs{Alpha1: game.Affine{B: -2}, Alpha2: game.Affine{B: 0.1}},
			p:      0.5, up: false, want: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := growthExtreme(tt.coeffs, tt.p, tt.up); got != tt.want {
				t.Errorf("growthExtreme -> %v, want %v", got, tt.want)
			}
		})
	}
}

// graph1 is a single-region test graph.
type graph1 struct{}

func (graph1) M() int                 { return 1 }
func (graph1) Gamma(i, j int) float64 { return 1 }
func (graph1) Neighbors(i int) []int  { return nil }

func singleModel(t *testing.T, beta float64) *game.Model {
	t.Helper()
	m, err := game.NewModel(lattice.PaperPayoffs(), graph1{}, []float64{beta})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStallDetection: after StallPatience rounds without improvement the
// controller's stalled() fires once and resets.
func TestStallDetection(t *testing.T) {
	m := singleModel(t, 3)
	f, err := NewFDS(m, NewFreeField(1, 8), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	f.StallPatience = 3
	// No improvement at 0.2 for three rounds -> stall fires on the third.
	if f.stalled(0, 0.2) {
		t.Error("first round cannot stall")
	}
	if f.stalled(0, 0.2) {
		t.Error("second round should not stall yet")
	}
	if !f.stalled(0, 0.2) {
		t.Error("third unimproved round must stall")
	}
	// Counter reset after firing.
	if f.stalled(0, 0.2) {
		t.Error("counter must reset after firing")
	}
	// Improvement resets the counter.
	f.stalled(0, 0.2)
	if f.stalled(0, 0.1) {
		t.Error("improving round must not stall")
	}
	// Zero shortfall clears everything.
	if f.stalled(0, 0) {
		t.Error("in-band region never stalls")
	}
	// Disabled patience.
	f.StallPatience = 0
	for i := 0; i < 10; i++ {
		if f.stalled(0, 0.5) {
			t.Fatal("disabled stall detection must never fire")
		}
	}
	f.ResetStallState()
	if f.stallRounds[0] != 0 || f.lastShortfall[0] != 0 {
		t.Error("ResetStallState did not clear")
	}
}

func TestRevisionLowerBoundValidation(t *testing.T) {
	m := singleModel(t, 3)
	field := NewFreeField(1, 8)
	s := game.NewUniformState(1, 8, 0.5)
	if _, _, err := RevisionLowerBound(m, field, s, 0, 0.15, 0.1, 10); err == nil {
		t.Error("zero mu must error")
	}
	if _, _, err := RevisionLowerBound(m, field, s, 0.5, 0, 0.1, 10); err == nil {
		t.Error("zero tau must error")
	}
	if _, _, err := RevisionLowerBound(m, field, s, 0.5, 0.15, 0, 10); err == nil {
		t.Error("zero lambda must error")
	}
	if _, _, err := RevisionLowerBound(m, field, s, 0.5, 0.15, 0.1, 0); err == nil {
		t.Error("zero budget must error")
	}
	if _, _, err := RevisionLowerBound(m, NewFreeField(2, 8), s, 0.5, 0.15, 0.1, 10); err == nil {
		t.Error("mismatched field must error")
	}
	// Converged field -> bound 0.
	lb, capped, err := RevisionLowerBound(m, field, s, 0.5, 0.15, 0.1, 10)
	if err != nil || capped || lb != 0 {
		t.Errorf("free field bound = %d/%v/%v, want 0", lb, capped, err)
	}
}

// TestRevisionLowerBoundSigmaCeiling: a rising target that the softmax
// ceiling can never reach is reported as capped.
func TestRevisionLowerBoundSigmaCeiling(t *testing.T) {
	// Tiny beta: even at x=1 the best fitness of P1 is far below zero, so
	// its softmax share against the always-zero empty decision stays small.
	m := singleModel(t, 0.01)
	field := NewFreeField(1, 8)
	field.P[0][0].Lo = 0.9 // P1 >= 90%: unreachable under the ceiling
	s := game.NewUniformState(1, 8, 0.1)
	_, capped, err := RevisionLowerBound(m, field, s, 0.5, 0.05, 0.1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !capped {
		t.Error("unreachable target should cap the bound search")
	}
}

// TestRevisionLowerBoundMonotoneInMu: a slower revision rate cannot yield a
// smaller bound.
func TestRevisionLowerBoundMonotoneInMu(t *testing.T) {
	m := singleModel(t, 4)
	field := NewFreeField(1, 8)
	field.P[0][0].Lo = 0.8
	s := game.NewUniformState(1, 8, 0.5)
	prev := -1
	for _, mu := range []float64{1.0, 0.5, 0.25, 0.1} {
		lb, capped, err := RevisionLowerBound(m, field, s, mu, 0.15, 0.1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if capped {
			t.Fatalf("mu=%f capped", mu)
		}
		if prev >= 0 && lb < prev {
			t.Errorf("mu=%f bound %d below faster-revision bound %d", mu, lb, prev)
		}
		prev = lb
	}
}

// TestAnalyticLowerBoundFallingShare exercises the downward envelope.
func TestAnalyticLowerBoundFallingShare(t *testing.T) {
	m := singleModel(t, 0.5) // weak utility: slow decay envelope
	field := NewFreeField(1, 8)
	field.P[0][0].Hi = 0.05 // P1 must fall to 5%
	s := game.NewUniformState(1, 8, 0.5)
	s.P[0] = []float64{0.9, 0, 0, 0, 0, 0, 0, 0.1}
	lb, capped, err := AnalyticLowerBound(m, field, s, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if capped {
		t.Fatal("bound capped unexpectedly")
	}
	if lb < 1 {
		t.Errorf("falling from 0.9 to 0.05 needs at least one round, got %d", lb)
	}
}

// TestConditionSetCoversClassifiedCase: for random affine coefficients, any
// x the condition set admits for a "contains 1" target must classify the
// linearized system into a case converging to 1 (and symmetrically for 0).
func TestConditionSetCoversClassifiedCase(t *testing.T) {
	coeffsList := []game.LinearCoeffs{
		{Alpha1: game.Affine{A: 0.5, B: -1}, Alpha2: game.Affine{A: -0.3, B: 0.8}},
		{Alpha1: game.Affine{A: -0.2, B: 0.4}, Alpha2: game.Affine{A: 0.1, B: -0.5}},
		{Alpha1: game.Affine{A: 1, B: -2}, Alpha2: game.Affine{A: -1, B: 2}},
	}
	for ci, c := range coeffsList {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			// Skip degenerate ratios where alpha1 = alpha2 = 0: the
			// linearized dynamics are frozen there and the case boundary
			// conditions all tie, so membership is ambiguous by design.
			degenerate := func(x float64) bool {
				return math.Abs(c.Alpha1.At(x)) < 1e-9 && math.Abs(c.Alpha2.At(x)) < 1e-9
			}
			up := condSet(c, p, optimize.Interval{Lo: 0.8, Hi: 1})
			for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
				if !up.Contains(x) || degenerate(x) {
					continue
				}
				cl := game.Classify(c.Alpha1.At(x), c.Alpha2.At(x), p)
				if cl.Limit != 1 {
					t.Errorf("coeffs %d p=%.1f: x=%.2f in up-set but classifies %v (limit %f)",
						ci, p, x, cl.Case, cl.Limit)
				}
			}
			down := condSet(c, p, optimize.Interval{Lo: 0, Hi: 0.2})
			for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
				if !down.Contains(x) || degenerate(x) {
					continue
				}
				cl := game.Classify(c.Alpha1.At(x), c.Alpha2.At(x), p)
				if cl.Limit != 0 {
					t.Errorf("coeffs %d p=%.1f: x=%.2f in down-set but classifies %v (limit %f)",
						ci, p, x, cl.Case, cl.Limit)
				}
			}
		}
	}
}

// condSet is conditionSet into a set of its own.
func condSet(c game.LinearCoeffs, p float64, want optimize.Interval) optimize.Set {
	var set optimize.Set
	conditionSet(&set, c, p, want)
	return set
}

// TestConditionSetESSTarget: Case-4 sets admit only ratios whose stable
// rest point lies inside the desired interval.
func TestConditionSetESSTarget(t *testing.T) {
	c := game.LinearCoeffs{
		Alpha1: game.Affine{A: -2, B: 0},  // alpha1 = -2 (stable)
		Alpha2: game.Affine{A: 0.2, B: 1}, // alpha2 = 0.2 + x
	}
	want := optimize.Interval{Lo: 0.4, Hi: 0.6}
	set := condSet(c, 0.5, want)
	if set.Empty() {
		t.Fatal("expected non-empty Case-4 set")
	}
	for _, x := range []float64{0, 0.2, 0.5, 0.8, 1} {
		rest := -(c.Alpha2.At(x)) / (c.Alpha1.At(x))
		// Skip rest points within float noise of the band edges: interval
		// membership there is decided by rounding, not semantics.
		if math.Abs(rest-want.Lo) < 1e-9 || math.Abs(rest-want.Hi) < 1e-9 {
			continue
		}
		inSet := set.Contains(x)
		inBand := rest >= want.Lo && rest <= want.Hi
		if inSet != inBand {
			t.Errorf("x=%.2f: set membership %v but rest point %.3f in-band %v", x, inSet, rest, inBand)
		}
	}
}
