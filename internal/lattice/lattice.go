// Package lattice implements the paper's lattice-based data-sharing policy:
// the decision space of "which sensor modalities to share", the
// predecessor/successor partial order over decisions (Fig. 2's DAG), and the
// accessibility rule that couples sharing generosity to collection rights.
//
// Convention (Section III of the paper): decision l is a *successor* of
// decision k, written k ≺ l, iff P^l ⊊ P^k — predecessors share strictly
// more. Decision 1 shares everything (P¹ = Ω) and decision K shares nothing
// (P^K = ∅). Under the policy, a vehicle with decision k may access (with
// probability x) the data shared by a vehicle with decision l iff P^l ⊆ P^k:
// you can read from those who share no more than you do.
package lattice

import (
	"fmt"
	"sort"

	"repro/internal/sensor"
)

// Decision indexes a data-sharing decision, 1-based as in the paper
// (P¹ … P^K).
type Decision int

// Lattice is the decision space over a universe of sensor modalities.
// Decisions are all subsets of the universe ordered so that decision 1 is
// the full set and decision K the empty set, with set size decreasing —
// reproducing the paper's P¹..P⁸ numbering for the 3-modality universe.
type Lattice struct {
	universe sensor.Mask
	shares   []sensor.Mask // shares[k-1] = P^k
	index    map[sensor.Mask]Decision
}

// New builds the lattice of all subsets of the given universe.
func New(universe sensor.Mask) (*Lattice, error) {
	if !universe.Valid() {
		return nil, fmt.Errorf("lattice: invalid universe mask %#x", uint8(universe))
	}
	if universe == 0 {
		return nil, fmt.Errorf("lattice: universe must contain at least one modality")
	}
	types := universe.Types()
	n := len(types)
	subsets := make([]sensor.Mask, 0, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		var m sensor.Mask
		for i, t := range types {
			if bits&(1<<i) != 0 {
				m |= sensor.MaskOf(t)
			}
		}
		subsets = append(subsets, m)
	}
	// Order: decreasing cardinality; ties broken to reproduce the paper's
	// P1..P8 listing (camera-first within equal sizes, which for the full
	// universe yields {C,L,R}, {C,L}, {C,R}, {L,R}, {C}, {L}, {R}, {}).
	sort.SliceStable(subsets, func(i, j int) bool {
		ci, cj := subsets[i].Count(), subsets[j].Count()
		if ci != cj {
			return ci > cj
		}
		return subsetRank(subsets[i]) < subsetRank(subsets[j])
	})
	l := &Lattice{
		universe: universe,
		shares:   subsets,
		index:    make(map[sensor.Mask]Decision, len(subsets)),
	}
	for i, m := range subsets {
		l.index[m] = Decision(i + 1)
	}
	return l, nil
}

// subsetRank orders equal-cardinality masks camera-first, as the paper's
// enumeration does: lower rank sorts earlier. It treats the mask's bits with
// camera as most significant.
func subsetRank(m sensor.Mask) int {
	rank := 0
	if m.Has(sensor.Camera) {
		rank -= 4
	}
	if m.Has(sensor.LiDAR) {
		rank -= 2
	}
	if m.Has(sensor.Radar) {
		rank--
	}
	return rank
}

// NewPaper builds the 8-decision lattice over the full {camera,lidar,radar}
// universe used throughout the paper.
func NewPaper() *Lattice {
	l, err := New(sensor.MaskAll)
	if err != nil {
		// The full universe is always valid.
		panic(fmt.Sprintf("lattice: internal error: %v", err))
	}
	return l
}

// K returns the number of decisions.
func (l *Lattice) K() int { return len(l.shares) }

// Share returns P^k, the set of modalities shared under decision k.
func (l *Lattice) Share(k Decision) (sensor.Mask, error) {
	if k < 1 || int(k) > len(l.shares) {
		return 0, fmt.Errorf("lattice: decision %d out of range [1,%d]", k, len(l.shares))
	}
	return l.shares[k-1], nil
}

// MustShare is Share for callers with known-valid decisions; it panics on a
// bad decision index.
func (l *Lattice) MustShare(k Decision) sensor.Mask {
	m, err := l.Share(k)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// DecisionOf returns the decision whose share set equals m.
func (l *Lattice) DecisionOf(m sensor.Mask) (Decision, error) {
	d, ok := l.index[m]
	if !ok {
		return 0, fmt.Errorf("lattice: mask %v is not a decision over universe %v", m, l.universe)
	}
	return d, nil
}

// Precedes reports k ⪯ l: P^l ⊆ P^k (k shares at least as much as l).
// Invalid decisions report false.
func (l *Lattice) Precedes(k, j Decision) bool {
	mk, err := l.Share(k)
	if err != nil {
		return false
	}
	mj, err := l.Share(j)
	if err != nil {
		return false
	}
	return mj.SubsetOf(mk)
}

// StrictlyPrecedes reports k ≺ l: P^l ⊊ P^k.
func (l *Lattice) StrictlyPrecedes(k, j Decision) bool {
	return k != j && l.Precedes(k, j)
}

// CanAccess reports whether a vehicle with decision receiver may access the
// data shared by a vehicle with decision sharer under the lattice policy
// (before the sharing-ratio coin flip): P^sharer ⊆ P^receiver.
func (l *Lattice) CanAccess(receiver, sharer Decision) bool {
	return l.Precedes(receiver, sharer)
}

// Accessible returns all decisions whose shared data a vehicle with decision
// k may access, i.e. {l : P^l ⊆ P^k}, in ascending decision order. The set
// always includes k itself and the empty decision.
func (l *Lattice) Accessible(k Decision) []Decision {
	var out []Decision
	for j := Decision(1); int(j) <= len(l.shares); j++ {
		if l.CanAccess(k, j) {
			out = append(out, j)
		}
	}
	return out
}

// Successors returns the immediate successors of k in Fig. 2's DAG: the
// decisions whose share set removes exactly one modality from P^k.
func (l *Lattice) Successors(k Decision) []Decision {
	mk, err := l.Share(k)
	if err != nil {
		return nil
	}
	var out []Decision
	for _, t := range mk.Types() {
		smaller := mk &^ sensor.MaskOf(t)
		if d, ok := l.index[smaller]; ok {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Predecessors returns the immediate predecessors of k: decisions whose
// share set adds exactly one modality to P^k.
func (l *Lattice) Predecessors(k Decision) []Decision {
	mk, err := l.Share(k)
	if err != nil {
		return nil
	}
	var out []Decision
	for _, t := range l.universe.Types() {
		if mk.Has(t) {
			continue
		}
		larger := mk | sensor.MaskOf(t)
		if d, ok := l.index[larger]; ok {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Top returns the all-sharing decision (P¹ = Ω).
func (l *Lattice) Top() Decision { return 1 }

// Bottom returns the nothing-sharing decision (P^K = ∅).
func (l *Lattice) Bottom() Decision { return Decision(len(l.shares)) }
