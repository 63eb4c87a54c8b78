package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 0.2, Hi: 0.6}
	if iv.Empty() {
		t.Error("non-degenerate interval reported empty")
	}
	if !iv.Contains(0.2) || !iv.Contains(0.6) || iv.Contains(0.61) {
		t.Error("Contains wrong at endpoints")
	}
	if math.Abs(iv.Width()-0.4) > 1e-12 {
		t.Errorf("Width = %f", iv.Width())
	}
	if got := iv.Clamp(0.9); got != 0.6 {
		t.Errorf("Clamp(0.9) = %f", got)
	}
	if got := iv.Clamp(0.4); got != 0.4 {
		t.Errorf("Clamp(0.4) = %f", got)
	}
	e := EmptyInterval()
	if !e.Empty() || e.Width() != 0 {
		t.Error("EmptyInterval not empty")
	}
	if !math.IsNaN(e.Clamp(0.5)) {
		t.Error("Clamp on empty must be NaN")
	}
	if e.String() != "∅" {
		t.Errorf("empty string = %q", e.String())
	}
	inter := iv.Intersect(Interval{Lo: 0.5, Hi: 1})
	if inter.Lo != 0.5 || inter.Hi != 0.6 {
		t.Errorf("Intersect = %v", inter)
	}
	if !iv.Intersect(Interval{Lo: 0.7, Hi: 1}).Empty() {
		t.Error("disjoint intersect should be empty")
	}
}

func TestSolveAffine(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want Interval
	}{
		{"positive slope", -0.5, 1, Interval{Lo: 0.5, Hi: 1}},
		{"negative slope", 0.5, -1, Interval{Lo: 0, Hi: 0.5}},
		{"always true", 1, 0, Unit()},
		{"never true", -1, 0, EmptyInterval()},
		{"root outside right", -2, 1, EmptyInterval()},
		{"root outside left", 1, 1, Unit()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := SolveAffineGE(tt.a, tt.b)
			if got.Empty() != tt.want.Empty() {
				t.Fatalf("SolveAffineGE(%f,%f) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if !got.Empty() && (math.Abs(got.Lo-tt.want.Lo) > 1e-12 || math.Abs(got.Hi-tt.want.Hi) > 1e-12) {
				t.Errorf("SolveAffineGE(%f,%f) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

// TestSolveAffineProperty: x in solution iff a + b*x >= 0 (within eps), for
// random coefficients and sample points.
func TestSolveAffineProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 5)
		b = math.Mod(b, 5)
		ge := SolveAffineGE(a, b)
		le := SolveAffineLE(a, b)
		for _, x := range []float64{0, 0.1, 0.33, 0.5, 0.77, 1} {
			v := a + b*x
			if v > 1e-9 && !ge.Contains(x) {
				return false
			}
			if v < -1e-9 && ge.Contains(x) {
				return false
			}
			if v < -1e-9 && !le.Contains(x) {
				return false
			}
			if v > 1e-9 && le.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet(Interval{0.1, 0.3}, Interval{0.2, 0.5}, Interval{0.7, 0.9})
	ivs := s.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("overlapping intervals not merged: %v", s)
	}
	if ivs[0].Lo != 0.1 || ivs[0].Hi != 0.5 {
		t.Errorf("merged interval = %v", ivs[0])
	}
	if !s.Contains(0.4) || s.Contains(0.6) || !s.Contains(0.8) {
		t.Error("Set.Contains wrong")
	}

	u := s.Union(NewSet(Interval{0.5, 0.7}))
	if len(u.Intervals()) != 1 {
		t.Errorf("bridge union should merge to one interval: %v", u)
	}

	i := s.Intersect(NewSet(Interval{0.25, 0.8}))
	want := NewSet(Interval{0.25, 0.5}, Interval{0.7, 0.8})
	gotIvs, wantIvs := i.Intervals(), want.Intervals()
	if len(gotIvs) != len(wantIvs) {
		t.Fatalf("Intersect = %v, want %v", i, want)
	}
	for k := range gotIvs {
		if math.Abs(gotIvs[k].Lo-wantIvs[k].Lo) > 1e-12 || math.Abs(gotIvs[k].Hi-wantIvs[k].Hi) > 1e-12 {
			t.Errorf("Intersect = %v, want %v", i, want)
		}
	}

	empty, ofEmpty, full := NewSet(), NewSet(EmptyInterval()), FullSet()
	if !empty.Empty() {
		t.Error("NewSet() should be empty")
	}
	if !ofEmpty.Empty() {
		t.Error("set of empty interval is empty")
	}
	if full.Empty() || !full.Contains(0.5) {
		t.Error("FullSet wrong")
	}
	if s.String() == "" || empty.String() != "∅" {
		t.Error("String wrong")
	}
}

func TestSetNearestAndMin(t *testing.T) {
	s := NewSet(Interval{0.2, 0.3}, Interval{0.7, 0.8})
	tests := []struct {
		x, want float64
	}{
		{0.0, 0.2},
		{0.25, 0.25},
		{0.49, 0.3}, // closer to 0.3 than to 0.7
		{0.55, 0.7}, // closer to 0.7
		{1.0, 0.8},
	}
	for _, tt := range tests {
		got, ok := s.Nearest(tt.x)
		if !ok || math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Nearest(%f) = %f,%v want %f", tt.x, got, ok, tt.want)
		}
	}
	empty := NewSet()
	if _, ok := empty.Nearest(0.5); ok {
		t.Error("Nearest on empty set must report !ok")
	}
	mn, ok := s.Min()
	if !ok || mn != 0.2 {
		t.Errorf("Min = %f,%v", mn, ok)
	}
	if _, ok := empty.Min(); ok {
		t.Error("Min on empty set must report !ok")
	}
}

func TestSetIntersectEmptyAbsorbs(t *testing.T) {
	s, empty := NewSet(Interval{0.2, 0.4}), NewSet()
	if in := s.Intersect(empty); !in.Empty() {
		t.Error("intersect with empty must be empty")
	}
	if un := empty.Union(empty); !un.Empty() {
		t.Error("union of empties must be empty")
	}
}

func TestProblemValidate(t *testing.T) {
	ok := &Problem{
		Lower:       []float64{0},
		Upper:       []float64{1},
		Constraints: []Constraint{func(z []float64) float64 { return z[0] - 1 }},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{Lower: []float64{0}, Upper: []float64{1, 2}, Constraints: ok.Constraints},
		{Lower: nil, Upper: nil, Constraints: ok.Constraints},
		{Lower: []float64{1}, Upper: []float64{0}, Constraints: ok.Constraints},
		{Lower: []float64{math.NaN()}, Upper: []float64{1}, Constraints: ok.Constraints},
		{Lower: []float64{0}, Upper: []float64{1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d passed validation", i)
		}
	}
}

// TestSolveFeasibleLinear: box [0,1]^2, constraints forcing z near a corner.
func TestSolveFeasibleLinear(t *testing.T) {
	p := &Problem{
		Lower: []float64{0, 0},
		Upper: []float64{1, 1},
		Constraints: []Constraint{
			func(z []float64) float64 { return 0.8 - z[0] },        // z0 >= 0.8
			func(z []float64) float64 { return z[1] - 0.2 },        // z1 <= 0.2
			func(z []float64) float64 { return z[0] + z[1] - 1.5 }, // slack
		},
	}
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("feasible problem reported infeasible: violation %g at %v", res.Violation, res.Z)
	}
	if res.Z[0] < 0.8-1e-3 || res.Z[1] > 0.2+1e-3 {
		t.Errorf("solution %v violates constraints", res.Z)
	}
}

// TestSolveInfeasible: contradictory constraints.
func TestSolveInfeasible(t *testing.T) {
	p := &Problem{
		Lower: []float64{0},
		Upper: []float64{1},
		Constraints: []Constraint{
			func(z []float64) float64 { return 0.8 - z[0] }, // z >= 0.8
			func(z []float64) float64 { return z[0] - 0.2 }, // z <= 0.2
		},
	}
	res, err := p.Solve(Options{MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("infeasible problem reported feasible at %v", res.Z)
	}
	// Best violation of the contradiction is 0.3 (at z=0.5).
	if res.Violation < 0.3-1e-6 {
		t.Errorf("violation %f below theoretical minimum 0.3", res.Violation)
	}
}

// TestSolveQuadratic: a disc constraint intersected with the box.
func TestSolveQuadratic(t *testing.T) {
	p := &Problem{
		Lower: []float64{-1, -1},
		Upper: []float64{1, 1},
		Constraints: []Constraint{
			// Inside a disc of radius 0.5 centered at (0.6, 0.6).
			func(z []float64) float64 {
				dx, dy := z[0]-0.6, z[1]-0.6
				return dx*dx + dy*dy - 0.25
			},
			// And above the line x + y >= 1.
			func(z []float64) float64 { return 1 - z[0] - z[1] },
		},
	}
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("feasible quadratic problem reported infeasible: violation %g", res.Violation)
	}
	dx, dy := res.Z[0]-0.6, res.Z[1]-0.6
	if dx*dx+dy*dy > 0.25+1e-3 {
		t.Errorf("solution %v outside disc", res.Z)
	}
}

func TestSolveInvalidProblem(t *testing.T) {
	p := &Problem{}
	if _, err := p.Solve(Options{}); err == nil {
		t.Error("invalid problem must error")
	}
}
