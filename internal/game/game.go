// Package game implements the paper's evolutionary-game analysis of
// vehicles' data-sharing decisions (Section IV-A): the group fitness of each
// decision under the lattice-based policy (Eq. 4), the discrete replicator
// dynamics of the decision distribution (Eq. 5), the alpha1/alpha2
// linearization used by the policy optimizer, and the classification of a
// (region, decision) pair into the paper's convergence Cases 1, 2, 3a, 3b
// and 4 (Eqs. 6-10).
//
// Terminology: region i holds a decision distribution p_i over K decisions
// (the proportion of vehicles taking each decision), a utility coefficient
// beta_i, and a sharing ratio x_i set by the policy. Regions interact along
// the auxiliary region graph with data-sharing frequencies gamma.
package game

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/lattice"
)

// Stepper is any decision dynamic that advances the game state one round
// (replicator Dynamics and LogitDynamics both satisfy it).
type Stepper interface {
	// Model returns the game model the dynamic runs over.
	Model() *Model
	// Step advances the state one round in place.
	Step(s *State) error
}

// Graph abstracts the auxiliary region graph the model runs on
// (cluster.RegionGraph satisfies it). NewModel reads Neighbors and Gamma
// once and keeps the values, so both must be stable for the model's
// lifetime: a graph that changes needs a new model.
type Graph interface {
	// M returns the number of regions.
	M() int
	// Gamma returns the data-sharing frequency gamma_{i,j}; Gamma(i,i) is
	// the intra-region frequency.
	Gamma(i, j int) float64
	// Neighbors returns the regions adjacent to i, excluding i.
	Neighbors(i int) []int
}

// Model bundles the static inputs of the game: the decision payoffs, the
// region graph, and the per-region utility coefficients beta.
type Model struct {
	payoffs *lattice.Payoffs
	graph   Graph
	beta    []float64
	// access[k] lists the decisions whose shared data decision k+1 may
	// access (l such that P^l is a subset of P^k), precomputed;
	// accessible[l*K+k] reports whether access[l] contains k.
	access     [][]int
	accessible []bool
	// The graph as the numeric core reads it, frozen at NewModel: nbrs[i] is
	// Neighbors(i), gammaIn[i][n] is Gamma(nbrs[i][n], i) in the same order,
	// and gammaSelf[i] is Gamma(i, i).
	nbrs      [][]int
	gammaIn   [][]float64
	gammaSelf []float64
}

// NewModel validates and assembles a model. beta must have one non-negative
// entry per region.
func NewModel(p *lattice.Payoffs, g Graph, beta []float64) (*Model, error) {
	if p == nil || g == nil {
		return nil, fmt.Errorf("game: payoffs and graph must be non-nil")
	}
	if len(beta) != g.M() {
		return nil, fmt.Errorf("game: beta has %d entries, want %d regions", len(beta), g.M())
	}
	for i, b := range beta {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("game: beta[%d] = %v must be finite and non-negative", i, b)
		}
	}
	l := p.Lattice()
	access := make([][]int, p.K())
	accessible := make([]bool, p.K()*p.K())
	for k := 1; k <= p.K(); k++ {
		for _, d := range l.Accessible(lattice.Decision(k)) {
			access[k-1] = append(access[k-1], int(d)-1)
			accessible[(k-1)*p.K()+int(d)-1] = true
		}
	}
	m := &Model{
		payoffs:    p,
		graph:      g,
		beta:       append([]float64(nil), beta...),
		access:     access,
		accessible: accessible,
		nbrs:       make([][]int, g.M()),
		gammaIn:    make([][]float64, g.M()),
		gammaSelf:  make([]float64, g.M()),
	}
	for i := range m.nbrs {
		m.nbrs[i] = append([]int(nil), g.Neighbors(i)...)
		m.gammaIn[i] = make([]float64, len(m.nbrs[i]))
		for n, j := range m.nbrs[i] {
			m.gammaIn[i][n] = g.Gamma(j, i)
		}
		m.gammaSelf[i] = g.Gamma(i, i)
	}
	return m, nil
}

// K returns the number of decisions.
func (m *Model) K() int { return m.payoffs.K() }

// M returns the number of regions.
func (m *Model) M() int { return m.graph.M() }

// Beta returns beta_i.
func (m *Model) Beta(i int) float64 { return m.beta[i] }

// Neighbors returns the regions whose shares and ratios region i's fitness
// reads — the graph's Neighbors(i) as frozen at NewModel. The caller must
// not write to it.
func (m *Model) Neighbors(i int) []int { return m.nbrs[i] }

// Payoffs returns the decision payoffs.
func (m *Model) Payoffs() *lattice.Payoffs { return m.payoffs }

// Graph returns the region graph.
func (m *Model) Graph() Graph { return m.graph }

// AccessibleValue returns sum_{l in Acc(k)} p[l] * f_l: the expected utility
// value per contact available to a vehicle with decision k facing decision
// distribution p. k is 0-based here and throughout the numeric core.
func (m *Model) AccessibleValue(k int, p []float64) float64 {
	total := 0.0
	for _, l := range m.access[k] {
		total += p[l] * m.payoffs.Utility[l]
	}
	return total
}

// State is the dynamic state of the game: one decision distribution per
// region and the current sharing-ratio vector.
type State struct {
	// P[i][k] is the proportion of vehicles in region i taking decision k+1.
	P [][]float64
	// X[i] is the sharing ratio of region i.
	X []float64
}

// NewUniformState returns a state with uniform decision distributions and
// all sharing ratios set to x0.
func NewUniformState(mRegions, k int, x0 float64) *State {
	s := &State{
		P: make([][]float64, mRegions),
		X: make([]float64, mRegions),
	}
	for i := range s.P {
		s.P[i] = make([]float64, k)
		for j := range s.P[i] {
			s.P[i][j] = 1 / float64(k)
		}
		s.X[i] = x0
	}
	return s
}

// Clone deep-copies the state. The copy's distributions are carved from one
// slab, so a clone costs four allocations however many regions there are;
// each row is capped at its own length and cannot grow into the next.
func (s *State) Clone() *State {
	total := 0
	for _, p := range s.P {
		total += len(p)
	}
	out := &State{
		P: make([][]float64, len(s.P)),
		X: append([]float64(nil), s.X...),
	}
	slab := make([]float64, total)
	for i, p := range s.P {
		n := copy(slab, p)
		out.P[i], slab = slab[:n:n], slab[n:]
	}
	return out
}

// CopyFrom overwrites s with src's values in s's own storage — a lag-window
// slot reused from round to round — so src must have s's shape.
func (s *State) CopyFrom(src *State) {
	for i, p := range src.P {
		copy(s.P[i], p)
	}
	copy(s.X, src.X)
}

// floatMemoBits caps FloatMemo at 1<<floatMemoBits slots: 4,096, 128 KiB,
// room for the census shares c/n of small fleets and the ratios a settled
// state holds; a larger memo bought no hits at M=1024. floatMemoMul, odd,
// spreads a bit pattern's low and high bits over the slot index.
const (
	floatMemoBits = 12
	floatMemoMul  = 0x9e3779b97f4a7c15
)

// FloatMemo remembers the JSON text of float64 values, direct-mapped by bit
// pattern, so a state whose values repeat is formatted by copying bytes, not
// by strconv. A slot's text is a pure function of its key, so the memo is
// never stale and never invalidated; a colliding value simply evicts it. It
// is not safe for concurrent use: its owner serialises the encodes.
type FloatMemo struct {
	slots []floatText
	shift uint // 64 - log2(len(slots)): a product's top bits index the slot
}

// NewFloatMemo returns a memo for states of n values: as many slots as the
// power of two at or above n, up to the cap. A process may hold a fold per
// gossip node, most over a handful of regions, and each such memo stays a
// few times its state's size instead of 128 KiB.
func NewFloatMemo(n int) *FloatMemo {
	bits := uint(0)
	for bits < floatMemoBits && 1<<bits < n {
		bits++
	}
	return &FloatMemo{slots: make([]floatText, 1<<bits), shift: 64 - bits}
}

// floatText is one memo slot, 32 bytes: n == 0 marks it empty, since every
// JSON float is at least one byte. NaN, ±Inf and texts longer than text are
// never stored.
type floatText struct {
	bits uint64
	n    uint8
	text [23]byte
}

// slot returns the one slot a value of these bits may occupy.
func (m *FloatMemo) slot(bits uint64) *floatText {
	return &m.slots[bits*floatMemoMul>>m.shift]
}

// AppendJSON appends to b exactly the bytes json.Marshal(s) produces — the
// canonical encoding the consensus state hash is taken over — without
// reflection, and reports false where json.Marshal would fail (a NaN or
// infinite value). encoding/json still decodes it. A value whose bits memo
// holds is copied from there; only a miss runs strconv, and pays for the
// store besides, so a state of recurring values encodes far faster and one of
// all-new values somewhat slower.
func (s *State) AppendJSON(b []byte, memo *FloatMemo) ([]byte, bool) {
	ok := true
	b = append(b, `{"P":`...)
	if s.P == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range s.P {
			if i > 0 {
				b = append(b, ',')
			}
			b, ok = appendJSONFloats(b, p, memo, ok)
		}
		b = append(b, ']')
	}
	b = append(b, `,"X":`...)
	b, ok = appendJSONFloats(b, s.X, memo, ok)
	return append(b, '}'), ok
}

// appendJSONFloats appends a []float64 the way encoding/json does, null for
// a nil slice, taking each value's text from memo or, on a miss, from
// appendJSONFloat and storing it there. ok turns false at a value JSON cannot
// carry.
func appendJSONFloats(b []byte, vs []float64, memo *FloatMemo, ok bool) ([]byte, bool) {
	if vs == nil {
		return append(b, "null"...), ok
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		bits := math.Float64bits(v)
		slot := memo.slot(bits)
		if slot.n != 0 && slot.bits == bits {
			b = append(b, slot.text[:slot.n]...)
			continue
		}
		start := len(b)
		b = appendJSONFloat(b, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		} else if n := len(b) - start; n <= len(slot.text) {
			slot.bits, slot.n = bits, uint8(n)
			copy(slot.text[:], b[start:])
		}
	}
	return append(b, ']'), ok
}

// appendJSONFloat appends v as encoding/json writes a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a two-digit
// exponent's leading zero removed.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Validate checks simplex and ratio invariants.
func (s *State) Validate() error {
	if len(s.P) != len(s.X) {
		return fmt.Errorf("game: state has %d distributions but %d ratios", len(s.P), len(s.X))
	}
	for i, p := range s.P {
		if err := ValidateSimplex(p); err != nil {
			return fmt.Errorf("game: region %d: %w", i, err)
		}
		if s.X[i] < 0 || s.X[i] > 1 || math.IsNaN(s.X[i]) {
			return fmt.Errorf("game: region %d: sharing ratio %f outside [0,1]", i, s.X[i])
		}
	}
	return nil
}

// ValidateSimplex checks that p is a probability distribution.
func ValidateSimplex(p []float64) error {
	total := 0.0
	for k, v := range p {
		if v < -1e-9 || math.IsNaN(v) {
			return fmt.Errorf("entry %d = %v is negative or NaN", k, v)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("distribution sums to %v, want 1", total)
	}
	return nil
}

// Normalize clips tiny negatives and rescales p to sum to 1 in place.
// A distribution that collapses to all-zeros becomes uniform.
func Normalize(p []float64) {
	total := 0.0
	for k, v := range p {
		if v < 0 {
			p[k] = 0
			v = 0
		}
		total += v
	}
	if total <= 0 {
		for k := range p {
			p[k] = 1 / float64(len(p))
		}
		return
	}
	for k := range p {
		p[k] /= total
	}
}

// Fitness computes q_{i,k} for every decision k in region i (Eq. 4):
//
//	q_{i,k} = beta_i * x_i * gamma_{i,i} * sum_{l in Acc(k)} p_{i,l} f_l
//	        + beta_i * sum_{j in N_i} x_j * gamma_{j,i} * sum_{l in Acc(k)} p_{j,l} f_l
//	        - g_k
//
// The result is written into out, which must have length K.
func (m *Model) Fitness(s *State, i int, out []float64) error {
	if i < 0 || i >= m.M() {
		return fmt.Errorf("game: region %d out of range [0,%d)", i, m.M())
	}
	if len(out) != m.K() {
		return fmt.Errorf("game: out has %d entries, want %d", len(out), m.K())
	}
	bi := m.beta[i]
	inner := bi * s.X[i] * m.gammaSelf[i]
	for k := 0; k < m.K(); k++ {
		q := inner * m.AccessibleValue(k, s.P[i])
		for n, j := range m.nbrs[i] {
			q += bi * s.X[j] * m.gammaIn[i][n] * m.AccessibleValue(k, s.P[j])
		}
		out[k] = q - m.payoffs.Cost[k]
	}
	return nil
}

// MeanFitness returns q-bar_i = sum_k p_{i,k} q_{i,k} given precomputed
// fitness values.
func MeanFitness(p, q []float64) float64 {
	total := 0.0
	for k := range p {
		total += p[k] * q[k]
	}
	return total
}

// Welfare summarizes the population's objective terms at a state: the
// paper's "healthy cooperation environment" is exactly high utility at low
// privacy cost.
type Welfare struct {
	// Utility is the population-average perception utility term of Eq. 4
	// (the beta-weighted accessible data value).
	Utility float64
	// PrivacyCost is the population-average privacy cost g.
	PrivacyCost float64
	// Fitness is Utility - PrivacyCost, the average Eq. 4 fitness.
	Fitness float64
}

// Welfare computes the region-averaged welfare of a state.
func (m *Model) Welfare(s *State) (Welfare, error) {
	var w Welfare
	q := make([]float64, m.K())
	for i := 0; i < m.M(); i++ {
		if err := m.Fitness(s, i, q); err != nil {
			return Welfare{}, err
		}
		for k, p := range s.P[i] {
			w.Fitness += p * q[k]
			w.PrivacyCost += p * m.payoffs.Cost[k]
			w.Utility += p * (q[k] + m.payoffs.Cost[k])
		}
	}
	n := float64(m.M())
	w.Utility /= n
	w.PrivacyCost /= n
	w.Fitness /= n
	return w, nil
}
