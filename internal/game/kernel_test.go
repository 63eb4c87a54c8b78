package game

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// specialFloats take each of encoding/json's float paths: 0 and -0, exact 1,
// plain decimals, below 1e-6 and from 1e21 up (exponent form, one- and
// two-digit exponents), and texts longer than a memo slot holds.
var specialFloats = []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.99e-7, 1e-7, 3.5e-12, 1e-300, 5e-324,
	1e20, 9.99e20, 1e21, 1.5e21, 2e100, math.MaxFloat64, -2.5e-9, -1e22, 1.0 / 3,
	-1.2345678901234567e-100, -2.2250738585072014e-308, 0.0000012345678901234567}

// collider returns a finite bit pattern other than bits that lands in bits's
// slot in a memo of any size: the slot is the top bits of bits*floatMemoMul,
// so flipping low bits of that product and multiplying back by the
// multiplier's inverse keeps the slot and changes the value.
func collider(bits uint64) uint64 {
	inv := uint64(floatMemoMul) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - floatMemoMul*inv
	}
	for flip := uint64(1); ; flip++ {
		c := (bits*floatMemoMul ^ flip) * inv
		if v := math.Float64frombits(c); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return c
		}
	}
}

// checkAppendJSON encodes each state through memo and requires json.Marshal's
// bytes and verdict and bytes encoding/json decodes, then requires every slot
// memo holds to be a finite value's own text, filed under its own bits.
func checkAppendJSON(t *testing.T, memo *FloatMemo, states []*State) {
	t.Helper()
	for _, s := range states {
		want, err := json.Marshal(s)
		got, ok := s.AppendJSON(nil, memo)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %s, %v\njson.Marshal = %s, %v", got, ok, want, err)
		}
		var back State
		if ok && json.Unmarshal(got, &back) != nil {
			t.Fatalf("encoding/json cannot decode %s", got)
		}
	}
	for i := range memo.slots {
		slot := &memo.slots[i]
		if slot.n == 0 {
			continue
		}
		v := math.Float64frombits(slot.bits)
		if memo.slot(slot.bits) != slot || math.IsNaN(v) || math.IsInf(v, 0) || string(slot.text[:slot.n]) != string(appendJSONFloat(nil, v)) {
			t.Fatalf("memo slot %d holds %q for %v", i, slot.text[:slot.n], v)
		}
	}
}

// TestStateAppendJSON requires the hand-appended encoding to be the bytes
// json.Marshal produces on special and random values and on nil or empty
// slices, every state through one full-size memo, forward and then in
// reverse, so most values are met once as a miss and again as a hit, and
// through a memo of one slot; then on more distinct
// values than the memo has slots, half of them paired with a value of the
// same slot, so texts evict each other and come back. NaN and ±Inf must be
// refused after a finite value has filled their slot, and never stored; 0
// and -0 keep their own texts.
func TestStateAppendJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return specialFloats[rng.Intn(len(specialFloats))]
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
	memo := NewFloatMemo(1 << 20)
	if len(memo.slots) != 1<<floatMemoBits {
		t.Fatalf("a memo for a large state has %d slots, want the cap %d", len(memo.slots), 1<<floatMemoBits)
	}
	checkAppendJSON(t, memo, states)
	slices.Reverse(states)
	checkAppendJSON(t, memo, states)
	checkAppendJSON(t, NewFloatMemo(0), states) // one slot: every new value evicts the last

	crowd := &State{X: make([]float64, 3<<floatMemoBits)}
	for i := 0; i < len(crowd.X); i += 2 {
		crowd.X[i] = value()
		crowd.X[i+1] = math.Float64frombits(collider(math.Float64bits(crowd.X[i])))
	}
	checkAppendJSON(t, memo, []*State{crowd, crowd})

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		squatter := math.Float64frombits(collider(math.Float64bits(bad)))
		checkAppendJSON(t, memo, []*State{{X: []float64{squatter, bad}}, {X: []float64{bad, squatter, bad}}})
	}
	zeros := &State{X: []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}}
	if got, _ := zeros.AppendJSON(nil, memo); string(got) != `{"P":null,"X":[0,-0,0,-0]}` {
		t.Errorf("0 and -0 through the memo: %s", got)
	}
}

// FuzzAppendJSON holds the memoised encoder to encoding/json on arbitrary
// bit patterns — NaN and infinity included, where only the verdict is
// compared — in a few states sharing one memo sized for them (8 slots), with
// a colliding value beside each so every slot the run touches changes hands.
func FuzzAppendJSON(f *testing.F) {
	for i, v := range specialFloats {
		f.Add(math.Float64bits(v), math.Float64bits(specialFloats[(i+1)%len(specialFloats)]), math.Float64bits(-v))
	}
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		v := func(bits uint64) float64 { return math.Float64frombits(bits) }
		ca, cb, cc := collider(a), collider(b), collider(c)
		checkAppendJSON(t, NewFloatMemo(7), []*State{
			{P: [][]float64{{v(a), v(b)}, {v(c)}}, X: []float64{v(ca), v(a)}},
			{X: []float64{v(cb), v(b), v(cc), v(c), v(ca)}},
			{P: [][]float64{{v(a), v(ca), v(a)}, {v(cc), v(c)}}, X: []float64{v(b), v(cb)}},
		})
	})
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
