package cloud

import (
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// lagEntry is one completed round buffered in the fixed-lag fusion window:
// the fold inputs (census set, degraded flag) plus a snapshot of the game
// state and FDS controller memory from just before the round was applied.
// Rewinding to preState/preFDS and re-folding censuses reproduces the
// round's effect exactly; the snapshots of later entries are recomputed
// during replay, so the window is always internally consistent.
type lagEntry struct {
	round    int
	preState *game.State
	preFDS   policy.FDSMemory
	censuses map[int][]int
	degraded bool
}

// SetFixedLag sets the fixed-lag fusion window to the last n completed
// rounds (0, the default, disables rewinding: late censuses are answered
// from the current state as before). A census arriving for a round still in
// the window rewinds the fold to that round's pre-state, re-applies the
// round with the late census merged in, and re-propagates through every
// buffered round after it — so the published ratio field ends bit-identical
// to what a lossless network would have produced. Call before Open and
// Serve: shrinking a live window discards its oldest entries.
func (s *Server) SetFixedLag(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lag = n
	s.trimWindowLocked()
	s.metrics.lagDepth.Set(float64(len(s.window)))
}

// StateHash returns a CRC-32C over the canonical JSON encoding of the
// current game state. encoding/json round-trips float64 exactly and map-free
// state marshals deterministically, so two coordinators hold bit-identical
// ratio fields if and only if their hashes match. The consensus_state_hash
// gauge reads this method when it is collected (exact: every uint32 fits a
// float64), so it takes s.mu and may wait out a commit in progress.
func (s *Server) StateHash() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Hash()
}

// pushWindowLocked buffers a round about to be applied: the snapshots are
// taken from the *current* (pre-fold) state. Called with s.mu held, before
// applyRoundLocked.
func (s *Server) pushWindowLocked(round int, censuses map[int][]int, degraded bool) {
	s.window = append(s.window, &lagEntry{
		round:    round,
		preState: s.fold.State().Clone(),
		preFDS:   s.fold.Memory(),
		censuses: censuses,
		degraded: degraded,
	})
	s.trimWindowLocked()
	s.metrics.lagDepth.Set(float64(len(s.window)))
}

// trimWindowLocked drops entries older than the lag allows, clearing the
// vacated slots so the backing array does not pin dead snapshots.
func (s *Server) trimWindowLocked() {
	if len(s.window) <= s.lag {
		return
	}
	n := copy(s.window, s.window[len(s.window)-s.lag:])
	for i := n; i < len(s.window); i++ {
		s.window[i] = nil
	}
	s.window = s.window[:n]
}

// windowIndexLocked returns the window index holding round, or -1.
func (s *Server) windowIndexLocked(round int) int {
	for i, e := range s.window {
		if e.round == round {
			return i
		}
	}
	return -1
}

// refoldLocked rewinds the fold to window entry idx's pre-state and
// re-propagates through every buffered round from there, refreshing each
// entry's snapshots along the way. The fold itself is Fold.Apply — the
// exact code live rounds run — so a replayed history is bit-identical to
// one where the censuses had arrived on time. Called with s.mu held.
func (s *Server) refoldLocked(idx int) error {
	e := s.window[idx]
	s.fold.SetState(e.preState.Clone())
	if err := s.fold.SetMemory(e.preFDS); err != nil {
		return err
	}
	for n, entry := range s.window[idx:] {
		if n > 0 {
			// Entry idx keeps the snapshot the fold was just rewound to.
			entry.preState = s.fold.State().Clone()
			entry.preFDS = s.fold.Memory()
		}
		if err := s.fold.Apply(entry.censuses); err != nil {
			return fmt.Errorf("re-folding round %d: %w", entry.round, err)
		}
	}
	return nil
}

// lateLocked resolves censuses for an already-completed round through the
// lag window, one by one (see handleLateLocked), stopping at the first
// fold failure. rewound tells the caller the published ratios changed:
// correction frames are due, once per submission however many censuses
// rewound. Called with s.mu held.
func (s *Server) lateLocked(round int, censuses []transport.Census) (rewound bool, err error) {
	for i := range censuses {
		s.metrics.late.Inc()
		handled, rw, err := s.handleLateLocked(round, &censuses[i])
		if err != nil {
			return rewound, err
		}
		if !handled && s.lag > 0 {
			s.metrics.beyondLag.Inc()
		}
		rewound = rewound || rw
	}
	return rewound, nil
}

// handleLateLocked resolves a census for an already-completed round through
// the lag window. It returns handled=false when the round is outside the
// window (lag disabled, round too old, or round abandoned without ever
// completing) — the census is then folded away and answered from the
// current state, the degraded path. When the census is a byte-identical
// duplicate of what the round already folded, it is absorbed without a
// rewind. Otherwise the fold rewinds, the census is merged last-write-wins,
// subsequent rounds re-propagate, and the corrected round is re-journaled.
// Called with s.mu held.
func (s *Server) handleLateLocked(round int, census *transport.Census) (handled, rewound bool, err error) {
	idx := s.windowIndexLocked(round)
	if s.lag <= 0 || idx < 0 {
		return false, false, nil
	}
	e := s.window[idx]
	if prev, ok := e.censuses[census.Edge]; ok && slices.Equal(prev, census.Counts) {
		s.metrics.Duplicates.Inc()
		return true, false, nil
	}
	span := s.obsv.Span("consensus_rewind", obs.A("round", round), obs.A("edge", census.Edge))
	e.censuses[census.Edge] = census.Counts
	if err := s.refoldLocked(idx); err != nil {
		span.End(obs.A("error", err.Error()))
		return true, false, err
	}
	replayed := len(s.window) - idx
	s.correctionSeq++
	s.metrics.rewinds.Inc()
	s.metrics.replayed.Add(int64(replayed))
	s.persistRoundLocked(durable.RoundRecord{Round: e.round, Degraded: e.degraded, Censuses: e.censuses, Corrected: true})
	s.logfLocked("cloud: rewound round %d for edge %d, re-folded %d rounds (correction seq %d)",
		round, census.Edge, replayed, s.correctionSeq)
	span.End(obs.A("replayed", replayed), obs.A("seq", s.correctionSeq))
	return true, true, nil
}

// pushCorrectionsLocked publishes a rewind's corrected ratios: every session
// is sent one frame carrying the current ratio of each region it reports for,
// except the submitters (whose census replies already carry the corrected
// ratios). A shard's session gets its whole region group in that one frame,
// an edge's its one region. See Engine.PushCorrections for the delivery
// rules. Called with s.mu held.
func (s *Server) pushCorrectionsLocked(submitted []transport.Census) {
	skip := make(map[int]bool, len(submitted))
	for i := range submitted {
		skip[submitted[i].Edge] = true
	}
	edges, x := s.corrEdges[:0], s.corrX[:0]
	for edge := 0; edge < s.m; edge++ {
		if !skip[edge] {
			edges = append(edges, edge)
			x = append(x, s.fold.X(edge))
		}
	}
	s.corrEdges, s.corrX = edges, x
	placed := s.eng.PushCorrections(s.eng.Latest(), s.correctionSeq, edges, x)
	s.metrics.corrections.Add(int64(placed))
}
