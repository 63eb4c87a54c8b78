package game

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/israce"
	"repro/internal/lattice"
)

// randomState fills a state of the model's shape with random distributions
// and ratios.
func randomState(rng *rand.Rand, m *Model) *State {
	s := NewUniformState(m.M(), m.K(), 0)
	for i := range s.P {
		for k := range s.P[i] {
			s.P[i][k] = rng.Float64()
		}
		Normalize(s.P[i])
		s.X[i] = rng.Float64()
	}
	return s
}

// TestLinearizerMatchesLinearize holds the controller's scratch path to the
// one-shot Linearize bit for bit, across a sweep in which the ratios move
// between regions while the tabulated distributions stay put — once on a
// table Tabulate filled whole, once on one TabulateRegion fills a region's
// rows at a time after each new state's Invalidate — and, for a random
// subset of the decisions, on a linearizer asked for only those.
func TestLinearizerMatchesLinearize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []Graph{fullGraph{m: 1, selfW: 1}, fullGraph{m: 2, selfW: 0.8}, fullGraph{m: 7, selfW: 0.6}} {
		beta := make([]float64, g.M())
		for i := range beta {
			beta[i] = 1 + 3*rng.Float64()
		}
		m, err := NewModel(lattice.PaperPayoffs(), g, beta)
		if err != nil {
			t.Fatal(err)
		}
		lz, byRegion, subset := m.NewLinearizer(), m.NewLinearizer(), m.NewLinearizer()
		all := make([]int, m.K())
		for k := range all {
			all[k] = k
		}
		for trial := 0; trial < 20; trial++ {
			s := randomState(rng, m)
			lz.Tabulate(s)
			subset.Tabulate(s)
			byRegion.Invalidate()
			for i := 0; i < m.M(); i++ {
				want, err := m.Linearize(s, i)
				if err != nil {
					t.Fatal(err)
				}
				byRegion.TabulateRegion(s, i)
				// A random subset of the decisions, in random order, from
				// none to all: the entries it names must be the full sweep's.
				ks := rng.Perm(m.K())[:rng.Intn(m.K()+1)]
				for name, run := range map[string]struct {
					got []LinearCoeffs
					ks  []int
				}{
					"Tabulate":       {lz.Region(s, i, all), all},
					"TabulateRegion": {byRegion.Region(s, i, all), all},
					"subset":         {subset.Region(s, i, ks), ks},
				} {
					got := run.got
					for _, k := range run.ks {
						for n, pair := range [][2]float64{
							{got[k].Alpha1.A, want[k].Alpha1.A}, {got[k].Alpha1.B, want[k].Alpha1.B},
							{got[k].Alpha2.A, want[k].Alpha2.A}, {got[k].Alpha2.B, want[k].Alpha2.B},
						} {
							if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
								t.Fatalf("M=%d region %d decision %d coefficient %d: scratch after %s %v, one-shot %v", m.M(), i, k, n, name, pair[0], pair[1])
							}
						}
					}
				}
				s.X[i] = rng.Float64() // the sweep moves ratios as it goes
			}
		}
	}
}

// TestStateAppendJSON requires the hand-appended encoding to be the bytes
// json.Marshal produces, on values that take each of encoding/json's float
// paths: 0 and -0, exact 1, plain decimals, below 1e-6 and from 1e21 up
// (exponent form, one- and two-digit exponents), and nil or empty slices.
func TestStateAppendJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.99e-7, 1e-7, 3.5e-12, 1e-300, 5e-324,
		1e20, 9.99e20, 1e21, 1.5e21, 2e100, math.MaxFloat64, -2.5e-9, -1e22, 1.0 / 3}
	value := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52) // any finite normal
		}
		return rng.Float64()
	}
	states := []*State{{}, {P: [][]float64{}, X: []float64{}}, {P: [][]float64{nil, {}}, X: []float64{1}}}
	for n := 0; n < 300; n++ {
		s := &State{P: make([][]float64, rng.Intn(5)), X: make([]float64, rng.Intn(5))}
		for i := range s.P {
			s.P[i] = make([]float64, rng.Intn(9))
			for k := range s.P[i] {
				s.P[i][k] = value()
			}
		}
		for i := range s.X {
			s.X[i] = value()
		}
		states = append(states, s)
	}
	for _, s := range states {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.AppendJSON(nil)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %s, %v\njson.Marshal = %s", got, ok, want)
		}
		var back State
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := (&State{X: []float64{0.5, bad}}).AppendJSON(nil); ok {
			t.Errorf("AppendJSON accepted %v, json.Marshal refuses it", bad)
		}
	}
}

var cloneSink *State // keeps the measured clone from living on the stack

// TestCloneAllocs pins a clone at four allocations whatever the region
// count, and checks the slab rows are real copies that cannot grow into
// each other.
func TestCloneAllocs(t *testing.T) {
	s := NewUniformState(1024, 8, 0.3)
	c := s.Clone()
	if !reflect.DeepEqual(c, s) {
		t.Fatal("clone differs from its source")
	}
	c.P[3] = append(c.P[3], 9)
	c.P[3][0] = 7
	if c.P[4][0] != s.P[4][0] || s.P[3][0] == 7 {
		t.Error("a clone's row shares memory with its neighbour or its source")
	}
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	if allocs := testing.AllocsPerRun(20, func() { cloneSink = s.Clone() }); allocs != 4 {
		t.Errorf("State.Clone at M=1024: %.0f allocs, want 4", allocs)
	}
}

// TestCopyFromAllocs: overwriting a clone with another state of its shape
// copies every value into the clone's own storage and allocates nothing.
func TestCopyFromAllocs(t *testing.T) {
	src, dst := NewUniformState(1024, 8, 0.3), NewUniformState(1024, 8, 0.6).Clone()
	src.P[5][2], src.X[7] = 0.125, 0.75
	row := &dst.P[5][0]
	dst.CopyFrom(src)
	if !reflect.DeepEqual(dst, src) || &dst.P[5][0] != row || &dst.P[5][0] == &src.P[5][0] {
		t.Fatal("CopyFrom did not copy into the destination's own storage")
	}
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	if allocs := testing.AllocsPerRun(20, func() { dst.CopyFrom(src) }); allocs != 0 {
		t.Errorf("State.CopyFrom at M=1024: %.0f allocs, want 0", allocs)
	}
}
