// Package optimize provides the numeric primitives behind the policy
// optimizer: closed-interval algebra on [0,1] (used by FDS to solve the
// convergence-case conditions for the sharing ratio analytically) and a
// projected-subgradient feasibility solver (used by the relaxed lower-bound
// problem of Eq. 22).
package optimize

import (
	"fmt"
	"math"
)

// Interval is a closed interval [Lo, Hi]. An interval with Lo > Hi is empty.
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: maxf(iv.Lo, other.Lo), Hi: minf(iv.Hi, other.Hi)}
}

// maxf and minf are math.Max and math.Min bit for bit, small enough to
// inline: equal operands merge their sign bits, and an infinity beats NaN.
func maxf(x, y float64) float64 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x > math.MaxFloat64 || y > math.MaxFloat64:
		return math.Inf(1)
	}
	return math.NaN()
}

func minf(x, y float64) float64 {
	switch {
	case x < y:
		return x
	case y < x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
	case x < -math.MaxFloat64 || y < -math.MaxFloat64:
		return math.Inf(-1)
	}
	return math.NaN()
}

// Width returns the length of the interval (0 for empty ones).
func (iv Interval) Width() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Clamp returns the point of the interval nearest to x. Calling Clamp on an
// empty interval is a bug; it returns NaN to make the misuse loud.
func (iv Interval) Clamp(x float64) float64 {
	if iv.Empty() {
		return math.NaN()
	}
	return maxf(iv.Lo, minf(iv.Hi, x))
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	return fmt.Sprintf("[%.4f,%.4f]", iv.Lo, iv.Hi)
}

// Unit is the interval [0, 1].
func Unit() Interval { return Interval{Lo: 0, Hi: 1} }

// EmptyInterval returns a canonical empty interval.
func EmptyInterval() Interval { return Interval{Lo: 1, Hi: 0} }

// SolveAffineGE returns {x in [0,1] : a + b*x >= 0} as an interval.
func SolveAffineGE(a, b float64) Interval {
	const eps = 1e-12
	switch {
	case math.Abs(b) <= eps:
		if a >= -eps {
			return Unit()
		}
		return EmptyInterval()
	case b > 0:
		return Interval{Lo: maxf(0, -a/b), Hi: 1}.Intersect(Unit())
	default:
		return Interval{Lo: 0, Hi: minf(1, -a/b)}.Intersect(Unit())
	}
}

// SolveAffineLE returns {x in [0,1] : a + b*x <= 0} as an interval.
func SolveAffineLE(a, b float64) Interval {
	return SolveAffineGE(-a, -b)
}

// setInline is how many intervals a Set holds without touching the heap. An
// FDS condition is a union of at most two intervals and an intersection of
// sets with a and b intervals has at most a+b-1, so the sets of one control
// round almost never outgrow it.
const setInline = 4

// Set is a union of disjoint, sorted, non-empty intervals within [0,1].
// The zero Set is the empty set. A Set is a value: up to setInline intervals
// live in the struct itself, larger sets spill to one heap slice, and no
// operation modifies a set once it is built, so copies are independent —
// except Build and IntersectInto, which rebuild the set they are given in
// place, for a caller that keeps its own scratch sets. Methods take a
// pointer only so that a call does not copy the set.
type Set struct {
	n      int
	inline [setInline]Interval
	spill  []Interval // all n intervals once the set outgrew inline, else nil
}

// view returns the set's intervals without copying; callers only read it.
func (s *Set) view() []Interval {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// add appends iv clipped to [0,1], dropping it when nothing is left. The set
// is not a valid Set again until normalize has run.
func (s *Set) add(iv Interval) {
	iv = iv.Intersect(Unit())
	if iv.Empty() {
		return
	}
	switch {
	case s.spill != nil:
		s.spill = append(s.spill, iv)
	case s.n < setInline:
		s.inline[s.n] = iv
	default:
		s.spill = append(append(make([]Interval, 0, 2*setInline), s.inline[:]...), iv)
	}
	s.n++
}

// normalize sorts the added intervals by Lo (by insertion: the inputs are
// few and nearly sorted) and merges those that overlap or touch within
// 1e-12.
func (s *Set) normalize() {
	ivs := s.view()
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].Lo < ivs[j-1].Lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	n := 0
	for _, iv := range ivs {
		if n > 0 && iv.Lo <= ivs[n-1].Hi+1e-12 {
			if iv.Hi > ivs[n-1].Hi {
				ivs[n-1].Hi = iv.Hi
			}
			continue
		}
		ivs[n] = iv
		n++
	}
	s.n = n
	if s.spill != nil {
		s.spill = s.spill[:n]
	}
}

// NewSet builds a Set from arbitrary intervals (they are cleaned, sorted,
// and merged).
func NewSet(ivs ...Interval) Set {
	var s Set
	s.Build(ivs...)
	return s
}

// Build makes s the set NewSet(ivs...) returns, in place.
func (s *Set) Build(ivs ...Interval) {
	s.n, s.spill = 0, nil
	for _, iv := range ivs {
		s.add(iv)
	}
	s.normalize()
}

// FullSet returns the set {[0,1]}.
func FullSet() Set { return Set{n: 1, inline: [setInline]Interval{Unit()}} }

// Point returns the set {x} (empty when x is outside [0,1]).
func Point(x float64) Set { return NewSet(Interval{Lo: x, Hi: x}) }

// Empty reports whether the set contains no points.
func (s *Set) Empty() bool { return s.n == 0 }

// Intervals returns the disjoint intervals of the set in ascending order.
func (s *Set) Intervals() []Interval { return append([]Interval(nil), s.view()...) }

// Contains reports membership.
func (s *Set) Contains(x float64) bool {
	for _, iv := range s.view() {
		if iv.Contains(x) {
			return true
		}
	}
	return false
}

// Union returns the union of two sets.
func (s *Set) Union(other Set) Set {
	var out Set
	for _, iv := range s.view() {
		out.add(iv)
	}
	for _, iv := range other.view() {
		out.add(iv)
	}
	out.normalize()
	return out
}

// Intersect returns the intersection of two sets.
func (s *Set) Intersect(other Set) Set {
	var out Set
	s.IntersectInto(&other, &out)
	return out
}

// IntersectInto makes out the intersection of s and other, in place; out is
// neither. Intersecting with [0,1] gives the other operand: its intervals
// already lie in [0,1], so the general path would rebuild them bit for bit.
// (No Set holds a -0 Lo — add clips against +0 — so == on [0,1] compares
// bits.)
func (s *Set) IntersectInto(other, out *Set) {
	switch unit := Unit(); {
	case s.n == 1 && s.view()[0] == unit:
		*out = *other
		return
	case other.n == 1 && other.view()[0] == unit:
		*out = *s
		return
	}
	out.n, out.spill = 0, nil
	for _, a := range s.view() {
		for _, b := range other.view() {
			out.add(a.Intersect(b))
		}
	}
	out.normalize()
}

// Nearest returns the point of the set closest to x. ok is false when the
// set is empty.
func (s *Set) Nearest(x float64) (nearest float64, ok bool) {
	if s.Empty() {
		return 0, false
	}
	best, bestD := 0.0, math.Inf(1)
	for _, iv := range s.view() {
		c := iv.Clamp(x)
		if d := math.Abs(c - x); d < bestD {
			bestD, best = d, c
		}
	}
	return best, true
}

// Min returns the smallest point of the set. ok is false when empty.
func (s *Set) Min() (float64, bool) {
	if s.Empty() {
		return 0, false
	}
	return s.view()[0].Lo, true
}

// String implements fmt.Stringer.
func (s Set) String() string {
	if s.Empty() {
		return "∅"
	}
	out := ""
	for i, iv := range s.view() {
		if i > 0 {
			out += "∪"
		}
		out += iv.String()
	}
	return out
}
