// Package policy implements the paper's policy optimization (Section IV-B):
// desired decision fields, the Fast Decision Shaping (FDS) algorithm
// (Algorithm 2) that steers each region's sharing ratio so the decision
// distribution converges to its desired field, fixed-ratio baselines, and
// the lower bound on convergence time obtained from the relaxed problem
// (Eq. 22, Proposition 4.1).
package policy

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/optimize"
)

// Field holds the desired decision field P*_{i,k} for every region and
// decision: an interval of acceptable proportions. An interval of [0,1]
// leaves that share unconstrained.
type Field struct {
	// P[i][k] is the acceptable interval for region i, decision k (0-based).
	P [][]optimize.Interval
}

// NewUniformField builds a field that applies the same per-decision target
// proportions (with tolerance eps) to every region — the form used in the
// paper's experiments, e.g. p1* = 65%, p5* = 25%, p7* = p8* = 5% with all
// others 0%.
func NewUniformField(mRegions int, target []float64, eps float64) (*Field, error) {
	if mRegions <= 0 {
		return nil, fmt.Errorf("policy: need at least one region, got %d", mRegions)
	}
	if eps < 0 || eps > 1 {
		return nil, fmt.Errorf("policy: eps %f outside [0,1]", eps)
	}
	total := 0.0
	for k, v := range target {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("policy: target[%d] = %f outside [0,1]", k, v)
		}
		total += v
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("policy: target proportions sum to %f > 1", total)
	}
	f := &Field{P: make([][]optimize.Interval, mRegions)}
	for i := range f.P {
		row := make([]optimize.Interval, len(target))
		for k, v := range target {
			row[k] = optimize.Interval{Lo: max0(v - eps), Hi: min1(v + eps)}
		}
		f.P[i] = row
	}
	return f, nil
}

// BandField builds the field that holds every share of p (p[i][k] is
// region i's share of decision k) within eps of its value, clipped to
// [0,1]: per region, so heterogeneous regions get their own targets.
func BandField(p [][]float64, eps float64) (*Field, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("policy: no shares to band")
	}
	f := &Field{P: make([][]optimize.Interval, len(p))}
	for i, row := range p {
		f.P[i] = make([]optimize.Interval, len(row))
		for k, v := range row {
			f.P[i][k] = optimize.Interval{Lo: max0(v - eps), Hi: min1(v + eps)}
		}
	}
	return f, nil
}

// NewFreeField builds a field with every share unconstrained.
func NewFreeField(mRegions, k int) *Field {
	f := &Field{P: make([][]optimize.Interval, mRegions)}
	for i := range f.P {
		row := make([]optimize.Interval, k)
		for j := range row {
			row[j] = optimize.Unit()
		}
		f.P[i] = row
	}
	return f
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// M returns the number of regions in the field.
func (f *Field) M() int { return len(f.P) }

// K returns the number of decisions (0 for an empty field).
func (f *Field) K() int {
	if len(f.P) == 0 {
		return 0
	}
	return len(f.P[0])
}

// Validate checks the field shape against a model.
func (f *Field) Validate(m *game.Model) error {
	if f.M() != m.M() {
		return fmt.Errorf("policy: field has %d regions, model %d", f.M(), m.M())
	}
	for i, row := range f.P {
		if len(row) != m.K() {
			return fmt.Errorf("policy: field region %d has %d decisions, model %d", i, len(row), m.K())
		}
		for k, iv := range row {
			if iv.Empty() {
				return fmt.Errorf("policy: field region %d decision %d is empty", i, k)
			}
		}
	}
	return nil
}

// shortfall returns how far share p lies outside its desired interval.
func shortfall(p float64, want optimize.Interval) float64 {
	switch {
	case p < want.Lo:
		return want.Lo - p
	case p > want.Hi:
		return p - want.Hi
	}
	return 0
}

// Converged reports whether every share lies in its desired interval, and,
// when it does not, the worst shortfall (largest distance from a share to
// its interval).
func (f *Field) Converged(s *game.State) (bool, float64) {
	worst := 0.0
	for i, row := range f.P {
		for k, iv := range row {
			if d := shortfall(s.P[i][k], iv); d > worst {
				worst = d
			}
		}
	}
	return worst == 0, worst
}
