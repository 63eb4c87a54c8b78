package game

import "fmt"

// The alpha1/alpha2 linearization (Section IV-A, Eq. 5's decomposition).
// For a fixed region i and decision k, with the neighbour distributions and
// ratios frozen at the current round, the paper rewrites the per-capita
// growth rate of p_{i,k} as
//
//	delta p / p  =  alpha1 * p  +  alpha2,
//
// where, writing c = beta_i * gamma_{i,i}, A_k for the inter-region gain
// alpha(p_{N_i,k}, x_{N_i}) and S1_k = sum_{l in Acc(k)} p_{i,l} f_l:
//
//	alpha1 = g_k - x_i*c*S1_k - A_k
//	alpha2 = A_k + x_i*c*(S1_k - S2_k) + sum_{l != k} g_l p_{i,l} - g_k
//	       - sum_{l != k} p_{i,l} A_l
//	S2_k   = sum_{l != k} p_{i,l} * sum_{l_a in Acc(l), l_a != k} p_{i,l_a} f_{l_a}
//
// Both alpha1 and alpha2 are affine in x_i, which is what lets the FDS
// policy optimizer solve the case conditions for x_i analytically.

// Affine is a + b*x.
type Affine struct {
	A, B float64
}

// At evaluates the affine form at x.
func (f Affine) At(x float64) float64 { return f.A + f.B*x }

// Add returns the sum of two affine forms.
func (f Affine) Add(g Affine) Affine { return Affine{A: f.A + g.A, B: f.B + g.B} }

// Scale returns c * f.
func (f Affine) Scale(c float64) Affine { return Affine{A: c * f.A, B: c * f.B} }

// LinearCoeffs holds alpha1 and alpha2 for one (region, decision) pair as
// affine functions of that region's own sharing ratio x_i.
type LinearCoeffs struct {
	Alpha1 Affine
	Alpha2 Affine
}

// Alpha1At and Alpha2At evaluate the coefficients at a given x_i.
func (c LinearCoeffs) Alpha1At(x float64) float64 { return c.Alpha1.At(x) }

// Alpha2At evaluates alpha2 at x.
func (c LinearCoeffs) Alpha2At(x float64) float64 { return c.Alpha2.At(x) }

// GrowthRateAt returns alpha1*p + alpha2 evaluated at sharing ratio x and
// share p: the linearized per-capita growth rate.
func (c LinearCoeffs) GrowthRateAt(x, p float64) float64 {
	return c.Alpha1At(x)*p + c.Alpha2At(x)
}

// InterRegionGain computes A_k = alpha(p_{N_i,k}, x_{N_i}): the fitness gain
// decision k in region i receives from neighbour regions (Eq. 4's
// inter-region term), which is independent of x_i.
func (m *Model) InterRegionGain(s *State, i, k int) float64 {
	total := 0.0
	for n, j := range m.nbrs[i] {
		total += s.X[j] * m.gammaIn[i][n] * m.AccessibleValue(k, s.P[j])
	}
	return m.beta[i] * total
}

// Linearize computes the alpha1/alpha2 coefficients of every decision in
// region i as affine functions of x_i, freezing all other quantities at the
// current state.
func (m *Model) Linearize(s *State, i int) ([]LinearCoeffs, error) {
	if i < 0 || i >= m.M() {
		return nil, fmt.Errorf("game: region %d out of range [0,%d)", i, m.M())
	}
	// A one-region table: a row per neighbour in Neighbors order, then i's.
	k, nb := m.K(), m.nbrs[i]
	av := make([]float64, (len(nb)+2)*k)
	idx := make([]int, len(nb)+k)
	rows, all := idx[:len(nb)], idx[len(nb):]
	for n, j := range nb {
		rows[n] = n
		m.accessibleValues(s.P[j], av[n*k:(n+1)*k])
	}
	for kk := range all {
		all[kk] = kk
	}
	m.accessibleValues(s.P[i], av[len(nb)*k:(len(nb)+1)*k])
	out := make([]LinearCoeffs, k)
	m.linearize(s, i, av, len(nb), rows, all, av[(len(nb)+1)*k:], out)
	return out, nil
}

// accessibleValues writes AccessibleValue(k, p) for every decision k into
// row.
func (m *Model) accessibleValues(p, row []float64) {
	for k := range row {
		row[k] = m.AccessibleValue(k, p)
	}
}

// linearize is the kernel behind Linearize and Linearizer.Region. av is a
// table of accessible values in rows of K (row r, decision k at av[r*K+k]):
// row self holds region i's and row rows[n] its n-th neighbour's. The
// ratios s.X are read live. gain (length K) is scratch; the coefficients of
// the decisions ks go to out[k] (out has length K), and the other entries of
// out keep whatever they held. Every decision's A_l enters each alpha2, so
// the gains are computed for all K whatever ks names.
//
// Every sum below accumulates in the order, and every product associates the
// way, the formulas above are written: states are compared by the bits of
// their ratios (the consensus_state_hash), so a reordering that moves a
// result by one ulp is a behaviour change.
func (m *Model) linearize(s *State, i int, av []float64, self int, rows, ks []int, gain []float64, out []LinearCoeffs) {
	k := m.K()
	p := s.P[i]
	beta, nbrs, gammaIn := m.beta[i], m.nbrs[i], m.gammaIn[i]
	c := beta * m.gammaSelf[i]
	s1 := av[self*k : (self+1)*k]

	// A_l for all decisions: each neighbour's term added to every l's sum in
	// turn, so each sum still runs in Neighbors order.
	clear(gain)
	for n, j := range nbrs {
		w := s.X[j] * gammaIn[n]
		for l, v := range av[rows[n]*k : (rows[n]+1)*k] {
			gain[l] += w * v
		}
	}
	for l := range gain {
		gain[l] *= beta
	}

	for _, kk := range ks {
		gk := m.payoffs.Cost[kk]

		// S2_k = sum_{l != k} p_l * sum_{l_a in Acc(l), l_a != k} p_{l_a} f_{l_a};
		// it and the two sums over l != k share one pass in ascending l.
		s2, sumOtherCost, sumOtherGain := 0.0, 0.0, 0.0
		for l := 0; l < k; l++ {
			if l == kk {
				continue
			}
			innerSum := s1[l]
			if m.accessible[l*k+kk] {
				innerSum -= p[kk] * m.payoffs.Utility[kk]
			}
			s2 += p[l] * innerSum
			sumOtherCost += m.payoffs.Cost[l] * p[l]
			sumOtherGain += p[l] * gain[l]
		}

		out[kk] = LinearCoeffs{
			Alpha1: Affine{
				A: gk - gain[kk],
				B: -c * s1[kk],
			},
			Alpha2: Affine{
				A: gain[kk] + sumOtherCost - gk - sumOtherGain,
				B: c * (s1[kk] - s2),
			},
		}
	}
}

// Linearizer linearizes the regions of one state over and over on buffers
// it owns: Tabulate computes every region's accessible values once, Region
// then costs no allocation. It belongs to one caller (the FDS controller
// keeps its own); the Model it reads is shared and never written.
type Linearizer struct {
	m      *Model
	av     []float64 // av[j*K+k] = AccessibleValue(k, P[j]) as of Tabulate
	gain   []float64
	coeffs []LinearCoeffs
	tabbed []uint64 // tabbed[j] == epoch: TabulateRegion has row j since Invalidate
	epoch  uint64
}

// NewLinearizer returns a linearizer for states of the model's shape.
func (m *Model) NewLinearizer() *Linearizer {
	return &Linearizer{
		m:      m,
		av:     make([]float64, m.M()*m.K()),
		gain:   make([]float64, m.K()),
		coeffs: make([]LinearCoeffs, m.K()),
		tabbed: make([]uint64, m.M()),
	}
}

// Tabulate records the accessible values of every region's distribution in
// s. Call it again whenever s.P changed; s.X may change freely in between.
func (l *Linearizer) Tabulate(s *State) {
	k := l.m.K()
	for j, p := range s.P {
		l.m.accessibleValues(p, l.av[j*k:(j+1)*k])
	}
}

// Invalidate starts a pass that linearizes only some regions of a state
// whose distributions changed, each after a TabulateRegion.
func (l *Linearizer) Invalidate() { l.epoch++ }

// TabulateRegion records the accessible values Region(s, i) reads — region
// i's and its neighbours' — skipping the rows it already recorded since the
// last Invalidate, so a pass that reaches every region of a dense graph
// still tabulates each row once.
func (l *Linearizer) TabulateRegion(s *State, i int) {
	k := l.m.K()
	row := func(j int) {
		if l.tabbed[j] != l.epoch {
			l.m.accessibleValues(s.P[j], l.av[j*k:(j+1)*k])
			l.tabbed[j] = l.epoch
		}
	}
	row(i)
	for _, j := range l.m.nbrs[i] {
		row(j)
	}
}

// Region linearizes the decisions ks of region i of s, which must hold the
// distributions last tabulated, at its current ratios. The result is the
// linearizer's own buffer of K entries, valid until the next call; only
// the entries ks name are this call's.
func (l *Linearizer) Region(s *State, i int, ks []int) []LinearCoeffs {
	l.m.linearize(s, i, l.av, i, l.m.nbrs[i], ks, l.gain, l.coeffs)
	return l.coeffs
}
