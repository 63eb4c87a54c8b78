package main

import (
	"fmt"
	"time"

	"repro/internal/cloud"
)

// censusSource yields the final census of every region for one round — what
// a lossless, in-order network would have delivered.
type censusSource func(round int) map[int][]int

// censusAt is the tier's own census source: what its edges reported (fleet)
// or the pre-generated pool with every late census applied (flood).
func (t *tier) censusAt(rounds int) censusSource {
	if !t.w.Flood {
		return func(r int) map[int][]int {
			m := make(map[int][]int, len(t.censusLog[r]))
			for region, counts := range t.censusLog[r] {
				if counts != nil {
					m[region] = counts
				}
			}
			return m
		}
	}
	// Later late censuses win, as at the aggregator (last write wins).
	late := map[int]map[int][]int{}
	if t.w.Rewind {
		for s := maxRewindDepth; s < rounds; s++ {
			lc := t.flood.late[s]
			target := s - lc.depth
			if late[target] == nil {
				late[target] = map[int][]int{}
			}
			late[target][lc.region] = lc.counts
		}
	}
	return func(r int) map[int][]int {
		m := make(map[int][]int, t.w.Regions)
		for region, counts := range t.flood.pool[r%floodPool] {
			m[region] = counts
		}
		for region, counts := range late[r] {
			m[region] = counts
		}
		return m
	}
}

// reference is a cloud.Fold built from the tier's own NodeConfig (through
// NewGossipFold, the constructor gossip nodes use) and fed the final
// censuses in round order.
type reference struct {
	hash           uint32
	chain          []uint32 // hash after each round, when asked for
	convergedRound int      // first round the desired field held, or -1
	foldUS         float64  // mean Fold.Apply time
}

func (t *tier) newFold() (*cloud.Fold, error) {
	nc := *t.foldNC
	nc.StateDir, nc.Obs = "", nil
	fold, _, err := nc.NewGossipFold()
	return fold, err
}

func (t *tier) reference(rounds int, src censusSource, chain bool) (*reference, error) {
	fold, err := t.newFold()
	if err != nil {
		return nil, err
	}
	ref := &reference{convergedRound: -1}
	var applying time.Duration
	for r := 0; r < rounds; r++ {
		censuses := src(r)
		start := time.Now()
		err := fold.Apply(censuses)
		applying += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("reference fold, round %d: %w", r, err)
		}
		if ref.convergedRound < 0 && fold.Converged() {
			ref.convergedRound = r
		}
		if chain {
			ref.chain = append(ref.chain, fold.Hash())
		}
	}
	ref.hash = fold.Hash()
	if rounds > 0 {
		ref.foldUS = float64(applying) / float64(rounds) / 1e3
	}
	return ref, nil
}

// watermarks reads every consensus node's Latest().
func (t *tier) watermarks() []int {
	marks := []int{t.agg.Latest()}
	for _, c := range t.coords {
		if c != nil {
			marks = append(marks, c.Latest())
		}
	}
	for _, en := range t.edges {
		if en.node != nil {
			marks = append(marks, en.node.Latest())
		}
	}
	return marks
}

// verify is the correctness gate of one run over rounds completed rounds.
// It returns the problems found (none = correct). tierChain, when
// non-empty, is the tier's hash after each round, used to name the first
// round that diverged from the reference.
func (t *tier) verify(rounds int, src censusSource, before []int, tierChain []uint32) (*reference, []string) {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, t.w.Name+": "+fmt.Sprintf(format, args...))
	}

	// (b) the tier folded what a reference cloud.Fold folds from the same
	// censuses — on every topology, so equal inputs imply equal hashes
	// across topologies too.
	ref, err := t.reference(rounds, src, false)
	if err != nil {
		bad("%v", err)
		return nil, problems
	}
	if got := t.agg.StateHash(); got != ref.hash {
		first := "unknown"
		if len(tierChain) > 0 {
			if chained, err := t.reference(rounds, src, true); err == nil {
				for r := range chained.chain {
					if r < len(tierChain) && tierChain[r] != chained.chain[r] {
						first = fmt.Sprintf("%d (tier %08x, reference %08x)", r, tierChain[r], chained.chain[r])
						break
					}
				}
			}
		}
		bad("consensus_state_hash %08x != reference cloud.Fold %08x after %d rounds; first differing round: %s",
			got, ref.hash, rounds, first)
	}

	// (c) every member of a gossip neighborhood holds the same local fold.
	for h, members := range t.hoods {
		want := t.edges[members[0]].node.StateHash()
		for _, m := range members[1:] {
			if got := t.edges[m].node.StateHash(); got != want {
				bad("neighborhood %d: edge %d holds %08x, edge %d holds %08x", h, members[0], want, m, got)
			}
		}
	}

	// (d) the fleet reaches the desired field.
	if !t.w.Flood && ref.convergedRound < 0 {
		bad("desired field never satisfied in %d rounds", rounds)
	}

	// (e) watermarks only advance, and end at the last round.
	for i, mark := range t.watermarks() {
		if mark < before[i] {
			bad("watermark %d went back from %d to %d", i, before[i], mark)
		}
		if mark != rounds-1 {
			bad("watermark %d ends at round %d, want %d", i, mark, rounds-1)
		}
	}
	return ref, problems
}
