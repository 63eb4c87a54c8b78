package cloud

import (
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/session"
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
// ratio fields if and only if their hashes match. The same value is exported
// as the consensus_state_hash gauge (exact: every uint32 fits a float64).
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
	s.metrics.stateHash.Set(float64(s.fold.Hash()))
	s.persistCorrectedLocked(e)
	s.logfLocked("cloud: rewound round %d for edge %d, re-folded %d rounds (correction seq %d)",
		round, census.Edge, replayed, s.correctionSeq)
	span.End(obs.A("replayed", replayed), obs.A("seq", s.correctionSeq))
	return true, true, nil
}

// pushCorrectionsLocked publishes one ratio-correction frame to every
// connected edge except the submitters (whose census replies already carry
// the corrected ratios). The frames are pushed asynchronously, by one sender
// per session that writes its frames in turn — a shard's session carries a
// frame for each of its regions — and gives up at the first failed send:
// failures are expected (the edge may have hung up), and the monotonic Seq
// makes redelivery on the next rewind harmless. Called with s.mu held.
func (s *Server) pushCorrectionsLocked(submitted []transport.Census) {
	skip := make(map[int]bool, len(submitted))
	for i := range submitted {
		skip[submitted[i].Edge] = true
	}
	frames := make(map[*session.Session][]transport.RatioCorrection)
	for edge, sess := range s.eng.Sessions() {
		if skip[edge] {
			continue
		}
		frames[sess] = append(frames[sess], transport.RatioCorrection{
			Edge: edge, Round: s.eng.Latest(), Seq: s.correctionSeq, X: s.fold.X(edge),
		})
		s.metrics.corrections.Inc()
	}
	for sess, rcs := range frames {
		go func() {
			for _, rc := range rcs {
				if sess.Send(transport.KindRatioCorrection, rc) != nil {
					return
				}
			}
		}()
	}
}
