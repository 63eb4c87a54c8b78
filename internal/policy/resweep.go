package policy

import (
	"math"

	"repro/internal/game"
)

// Divergence marks where, in one region, a timeline being replayed differs
// from the record it is replayed against (see Resweep). Values differ when
// their bits do: 0 and -0 are equal as numbers and encode differently.
type Divergence uint8

const (
	DivergedP   Divergence = 1 << iota // the region's decision distribution
	DivergedX                          // its sharing ratio
	DivergedMem                        // its stall memory
)

// Resweep replays one recorded sweep on a timeline that differs from the
// record in the regions div marks. A region whose step would read, bit for
// bit, what it read when the round was recorded takes the recorded result;
// only the others are stepped, so the outcome is the full sweep's exactly.
// It returns the number of regions stepped.
//
// pre, preMem are the replayed timeline before the round; post, postMem
// arrive as the record after it (post.P already brought to the replayed
// timeline by the caller) and leave as the replayed timeline after it. div
// arrives marking post.P, pre.X and preMem against the record and leaves
// marking post.P, post.X and postMem. The controller's memory is untouched.
func (f *FDS) Resweep(pre, post *game.State, preMem, postMem FDSMemory, div []Divergence) (stepped int) {
	// x is the Gauss–Seidel view: the round's new ratios below region i, its
	// old ones from i up. div is rewritten in step, so a neighbour's
	// DivergedX always describes the ratio region i is about to read.
	x := f.xs
	copy(x, pre.X)
	view := game.State{P: post.P, X: x}
	f.lin.Invalidate()
	for i := range x {
		reads := div[i]
		for _, j := range f.model.Neighbors(i) {
			reads |= div[j] &^ DivergedMem
		}
		if reads == 0 {
			x[i] = post.X[i]
			continue
		}
		// The step runs on the controller's arrays: lend them region i's memory.
		short, stall := f.lastShortfall[i], f.stallRounds[i]
		f.lastShortfall[i], f.stallRounds[i] = preMem.LastShortfall[i], preMem.StallRounds[i]
		f.lin.TabulateRegion(&view, i)
		f.step(&view, i)
		div[i] &= DivergedP
		if math.Float64bits(x[i]) != math.Float64bits(post.X[i]) {
			div[i] |= DivergedX
		}
		if math.Float64bits(f.lastShortfall[i]) != math.Float64bits(postMem.LastShortfall[i]) || f.stallRounds[i] != postMem.StallRounds[i] {
			div[i] |= DivergedMem
		}
		post.X[i], postMem.LastShortfall[i], postMem.StallRounds[i] = x[i], f.lastShortfall[i], f.stallRounds[i]
		f.lastShortfall[i], f.stallRounds[i] = short, stall
		stepped++
	}
	return stepped
}
