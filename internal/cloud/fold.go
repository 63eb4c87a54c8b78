package cloud

import (
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/policy"
)

// Fold is the transport-independent consensus fold core: a game state, the
// FDS controller shaping it, and the CRC-32C witness over the canonical
// state encoding. It is the piece of the coordinator that turns a round's
// census set into the next ratio field — extracted from Server so both
// consensus tiers drive the exact same code: the cloud folds globally, and
// every gossip node (internal/gossip) folds its neighborhood's rounds
// locally. Two folds fed the same census sequence hold bit-identical states,
// which is what makes edge-local rounds reconcilable with the control plane
// after a partition. The fold does no locking; the owner serializes calls.
type Fold struct {
	fds    *policy.FDS
	state  *game.State
	enc    []byte          // Hash's encoding buffer, reused from call to call
	memo   *game.FloatMemo // Hash's float texts by bit pattern, allocated by the first Hash
	row    []float64       // Replay's one row of shares
	hash   uint32          // Hash's last result, valid while hashed
	hashed bool            // cleared where the state changes: ApplySet, Replay and SetState
}

// NewFold validates the initial state and returns a fold over a private
// clone of it.
func NewFold(f *policy.FDS, initial *game.State) (*Fold, error) {
	if f == nil || initial == nil {
		return nil, fmt.Errorf("cloud: controller and state must be non-nil")
	}
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("cloud: initial state: %w", err)
	}
	if len(initial.P) == 0 {
		return nil, fmt.Errorf("cloud: initial state has no regions")
	}
	return &Fold{fds: f, state: initial.Clone()}, nil
}

// Regions returns the number of regions in the folded state.
func (f *Fold) Regions() int { return len(f.state.P) }

// Decisions returns the lattice size K censuses must match.
func (f *Fold) Decisions() int { return len(f.state.P[0]) }

// ApplySet folds one round's census set into the state and runs one FDS
// update. Regions missing from a degraded round — and empty censuses from
// edges with no registered vehicles — keep their last-known shares.
func (f *Fold) ApplySet(set *CensusSet) error {
	f.hashed = false
	for i, counts := range set.counts { // no longer than the state: member ids are regions
		if counts != nil {
			shares(counts, f.state.P[i])
		}
	}
	if _, err := f.fds.UpdateRatios(f.state); err != nil {
		return fmt.Errorf("cloud: FDS update: %w", err)
	}
	return nil
}

// Apply is ApplySet of a census map laid out by region (a region outside
// the state is passed over): the form the benchmark's reference fold hands in.
func (f *Fold) Apply(censuses map[int][]int) error {
	set := &CensusSet{counts: make([][]int, f.Regions())}
	for i, counts := range censuses {
		if i >= 0 && i < len(set.counts) {
			set.counts[i] = counts
		}
	}
	return f.ApplySet(set)
}

// shares writes a census into p as decision shares, or reports false and
// leaves p alone for one the fold passes over: empty, or not of p's length.
func shares(counts []int, p []float64) bool {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) != len(p) {
		return false
	}
	for d, c := range counts {
		p[d] = float64(c) / float64(total)
	}
	return true
}

// Replay is ApplySet for a round recorded once already, replayed on a timeline
// that has since diverged from the record in the regions div marks: it
// touches those and the ones their difference reaches, and arrives at exactly
// what ApplySet would (policy.FDS.Resweep, whose contract this shares, has the
// argument). On the way in DivergedP marks every region whose shares may
// differ once censuses are in — it diverged earlier, or its census here is
// not the recorded one. post is rewritten in place; it is the fold's own
// state when the round is the newest one buffered. It returns the number of
// regions whose ratio it recomputed.
func (f *Fold) Replay(set *CensusSet, pre, post *game.State, preMem, postMem policy.FDSMemory, div []policy.Divergence) int {
	if post == f.state {
		f.hashed = false
	}
	for i, d := range div {
		if d&policy.DivergedP == 0 {
			continue
		}
		// Region i's shares after this round's censuses, against the record's.
		f.row = append(f.row[:0], pre.P[i]...)
		shares(set.counts[i], f.row) // the cloud's: a table of m
		div[i] &^= policy.DivergedP
		for k, v := range f.row {
			if math.Float64bits(v) != math.Float64bits(post.P[i][k]) {
				div[i] |= policy.DivergedP
			}
		}
		copy(post.P[i], f.row)
	}
	return f.fds.Resweep(pre, post, preMem, postMem, div)
}

// Hash returns a CRC-32C over the canonical JSON encoding of the state —
// the bytes encoding/json writes for it. That encoding round-trips float64
// exactly and a map-free state encodes deterministically, so two folds hold
// bit-identical ratio fields if and only if their hashes match. A state
// JSON cannot carry (NaN, infinity) hashes to 0. The encoding runs when a
// reader asks (a metrics scrape, StateHash), once per state: no commit does.
// A value is formatted only when no earlier read left its text in the fold's
// game.FloatMemo — sized by the state, at most 128 KiB, keyed by bit pattern
// and never invalidated (a text is a pure function of its key) — so a state
// of recurring shares and ratios costs byte copies, not strconv.
func (f *Fold) Hash() uint32 {
	if !f.hashed {
		if f.memo == nil {
			f.memo = game.NewFloatMemo(len(f.state.P) * (f.Decisions() + 1))
		}
		b, ok := f.state.AppendJSON(f.enc[:0], f.memo)
		f.enc, f.hash, f.hashed = b, 0, true
		if ok {
			f.hash = crc32.Checksum(b, castagnoli)
		}
	}
	return f.hash
}

// X returns region edge's current sharing ratio.
func (f *Fold) X(edge int) float64 { return f.state.X[edge] }

// State returns the live state. The caller must hold whatever lock
// serializes the fold and must not mutate it outside ApplySet, Replay and
// SetState.
func (f *Fold) State() *game.State { return f.state }

// SetState replaces the live state, taking ownership of st (recovery
// installs a snapshot it owns).
func (f *Fold) SetState(st *game.State) { f.state, f.hashed = st, false }

// Memory snapshots the FDS controller's cross-round memory.
func (f *Fold) Memory() policy.FDSMemory { return f.fds.Memory() }

// MemoryInto is Memory written into mem's own slices.
func (f *Fold) MemoryInto(mem *policy.FDSMemory) { f.fds.MemoryInto(mem) }

// SetMemory restores the FDS controller's cross-round memory.
func (f *Fold) SetMemory(mem policy.FDSMemory) error { return f.fds.SetMemory(mem) }

// Converged reports whether the current state satisfies the desired field.
func (f *Fold) Converged() bool {
	ok, _ := f.fds.Field().Converged(f.state)
	return ok
}

// Checkpoint captures the fold after round as a durable checkpoint — a copy,
// which the journal encodes in the background while the fold moves on; the
// owner adds its own fields.
func (f *Fold) Checkpoint(round int) durable.Checkpoint {
	return durable.Checkpoint{Round: round, State: f.state.Clone(), FDS: f.fds.Memory()}
}

// Restore installs a checkpoint's payload — refusing one whose shape differs
// from the fold's — and returns it for the owner to read its own fields from:
// the Restore hook the cloud and a gossip node hand their journal (see
// durable.Owner), which then replays the journal onto the restored fold.
func (f *Fold) Restore(snap []byte) (durable.Checkpoint, error) {
	cp, err := durable.DecodeCheckpoint(snap)
	if err == nil {
		cpK := 0
		if len(cp.State.P) > 0 {
			cpK = len(cp.State.P[0])
		}
		if len(cp.State.P) != f.Regions() || cpK != f.Decisions() {
			err = fmt.Errorf("has %dx%d state, fold configured for %dx%d", len(cp.State.P), cpK, f.Regions(), f.Decisions())
		} else if len(cp.FDS.LastShortfall) > 0 {
			err = f.fds.SetMemory(cp.FDS)
		}
	}
	if err == nil {
		f.SetState(cp.State)
	}
	return cp, err
}
