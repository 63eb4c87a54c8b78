package optimize

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSet is the slice-based Set this package used before Set became an
// inline value, kept as the reference the property test compares against:
// clean to [0,1], sort.Slice by Lo, merge within 1e-12.
type refSet []Interval

func newRefSet(ivs ...Interval) refSet {
	var kept []Interval
	for _, iv := range ivs {
		iv = iv.Intersect(Unit())
		if !iv.Empty() {
			kept = append(kept, iv)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Lo < kept[j].Lo })
	var merged []Interval
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

func (s refSet) union(other refSet) refSet {
	return newRefSet(append(append([]Interval(nil), s...), other...)...)
}

func (s refSet) intersect(other refSet) refSet {
	var out []Interval
	for _, a := range s {
		for _, b := range other {
			if c := a.Intersect(b); !c.Empty() {
				out = append(out, c)
			}
		}
	}
	return newRefSet(out...)
}

func (s refSet) contains(x float64) bool {
	for _, iv := range s {
		if iv.Contains(x) {
			return true
		}
	}
	return false
}

func (s refSet) nearest(x float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	best, bestD := 0.0, math.Inf(1)
	for _, iv := range s {
		c := iv.Clamp(x)
		if d := math.Abs(c - x); d < bestD {
			bestD, best = d, c
		}
	}
	return best, true
}

// sameIntervals compares bit for bit, so a -0 endpoint is not a +0 one.
func sameIntervals(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

// randomIntervals draws n intervals on a 1/16 grid — so equal Lo ties,
// shared endpoints and containment are common — some of them nudged by less
// and by more than the 1e-12 merge tolerance, some empty, some reaching
// outside [0,1], some with a negative zero endpoint.
func randomIntervals(rng *rand.Rand, n int) []Interval {
	grid := func() float64 { return float64(rng.Intn(21)-2) / 16 }
	out := make([]Interval, n)
	for i := range out {
		lo := grid()
		iv := Interval{Lo: lo, Hi: lo + float64(rng.Intn(6)-1)/16}
		switch rng.Intn(8) {
		case 0:
			iv.Lo += 5e-13 // touches its left neighbour within the tolerance
		case 1:
			iv.Lo += 2e-12 // just outside it
		case 2:
			iv.Hi -= 5e-13
		case 3:
			iv.Lo, iv.Hi = math.Copysign(0, -1), math.Copysign(0, -1)
		}
		out[i] = iv
	}
	return out
}

// TestSetMatchesSliceReference drives NewSet, Union, Intersect, Contains,
// Nearest and Min against the slice-based reference on random inputs, from
// single intervals to far past the inline capacity, and requires identical
// intervals bit for bit.
func TestSetMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(what string, got Set, want refSet) {
		t.Helper()
		if !sameIntervals(got.Intervals(), want) {
			t.Fatalf("%s: got %v, reference %v", what, got.Intervals(), []Interval(want))
		}
		if got.Empty() != (len(want) == 0) {
			t.Fatalf("%s: Empty() = %v with %d reference intervals", what, got.Empty(), len(want))
		}
		gm, gok := got.Min()
		if gok != (len(want) > 0) || (gok && math.Float64bits(gm) != math.Float64bits(want[0].Lo)) {
			t.Fatalf("%s: Min() = %v, %v; reference %v", what, gm, gok, []Interval(want))
		}
		for probe := 0; probe < 8; probe++ {
			x := float64(rng.Intn(41)-4) / 32
			if got.Contains(x) != want.contains(x) {
				t.Fatalf("%s: Contains(%v) = %v, reference %v", what, x, got.Contains(x), want.contains(x))
			}
			gn, gok := got.Nearest(x)
			wn, wok := want.nearest(x)
			if gok != wok || math.Float64bits(gn) != math.Float64bits(wn) {
				t.Fatalf("%s: Nearest(%v) = %v, %v; reference %v, %v", what, x, gn, gok, wn, wok)
			}
		}
	}
	spilled := 0
	for trial := 0; trial < 4000; trial++ {
		// Sizes 0..3 stay inline, up to 3*setInline spill.
		a := randomIntervals(rng, rng.Intn(3*setInline+1))
		b := randomIntervals(rng, rng.Intn(3*setInline+1))
		sa, sb := NewSet(a...), NewSet(b...)
		ra, rb := newRefSet(a...), newRefSet(b...)
		if len(ra) > setInline {
			spilled++
		}
		check("NewSet", sa, ra)
		check("Union", sa.Union(sb), ra.union(rb))
		check("Intersect", sa.Intersect(sb), ra.intersect(rb))
		// The operands are values: neither operation may have touched them.
		check("NewSet after use", sa, ra)
		check("NewSet after use", sb, rb)
	}
	if spilled == 0 {
		t.Error("no trial outgrew the inline capacity")
	}
}

// TestMaxfMinfMatchMath: the inlined max and min are math.Max and
// math.Min bit for bit on every pair of special and ordinary values.
func TestMaxfMinfMatchMath(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-300, math.Nextafter(1, 2),
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 5e-324}
	for _, x := range vals {
		for _, y := range vals {
			if g, w := maxf(x, y), math.Max(x, y); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("maxf(%v, %v) = %v, math.Max %v", x, y, g, w)
			}
			if g, w := minf(x, y), math.Min(x, y); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("minf(%v, %v) = %v, math.Min %v", x, y, g, w)
			}
		}
	}
}

// TestSetFastPathsMatchGeneralPath holds the paths that skip add/normalize
// — FullSet, Point, one-interval NewSet, and an intersection with [0,1] on
// either side, spilled operands included — to the reference bit for bit.
func TestSetFastPathsMatchGeneralPath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(what string, got Set, want refSet) {
		t.Helper()
		if !sameIntervals(got.Intervals(), want) || got.Empty() != (len(want) == 0) {
			t.Fatalf("%s: got %v, reference %v", what, got.Intervals(), []Interval(want))
		}
	}
	full, rfull := FullSet(), newRefSet(Unit())
	check("FullSet", full, rfull)
	for _, x := range []float64{0, math.Copysign(0, -1), 1, 0.5, -0.25, 1.5, math.Nextafter(1, 2), math.NaN()} {
		if math.IsNaN(x) { // no reference for NaN: the general path itself
			p, general := Point(x), NewSet(Interval{x, x}, EmptyInterval())
			if !sameIntervals(p.Intervals(), general.Intervals()) {
				t.Fatalf("Point(NaN) = %v, general path %v", p.Intervals(), general.Intervals())
			}
			continue
		}
		check("Point", Point(x), newRefSet(Interval{x, x}))
	}
	spilled := 0
	for trial := 0; trial < 4000; trial++ {
		a := randomIntervals(rng, rng.Intn(3*setInline+1))
		sa, ra := NewSet(a...), newRefSet(a...)
		if len(ra) > setInline {
			spilled++
		}
		check("one-interval NewSet", NewSet(a[:min(1, len(a))]...), newRefSet(a[:min(1, len(a))]...))
		check("FullSet ∩ set", full.Intersect(sa), rfull.intersect(ra))
		check("set ∩ FullSet", sa.Intersect(full), ra.intersect(rfull))
		x := float64(rng.Intn(21)-2) / 16
		check("Point ∩ set", sa.Intersect(Point(x)), ra.intersect(newRefSet(Interval{x, x})))
	}
	if spilled == 0 {
		t.Error("no trial outgrew the inline capacity")
	}
}
