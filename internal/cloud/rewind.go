package cloud

import (
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
// Rewinding to preState/preFDS and re-folding the censuses reproduces the
// round's effect exactly; a rewind rewrites the snapshots of the entries
// after the one it rewinds to, in place, so the window is always internally
// consistent — and entry n+1's snapshot is always the state after round n.
type lagEntry struct {
	round    int
	preState *game.State
	preFDS   policy.FDSMemory
	set      *CensusSet
	degraded bool
}

// SetFixedLag sets the fixed-lag fusion window to the last n completed
// rounds (0, the default, disables rewinding: late censuses are answered
// from the current state as before). A census arriving for a round still in
// the window is merged into that round and re-propagated through it and
// every buffered round after it (refoldLocked) — so the published ratio
// field ends bit-identical to what a lossless network would have produced.
// Call before Open and Serve: shrinking a live window discards its oldest
// entries.
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
// float64), so it takes s.mu and may wait out a commit in progress; a commit
// may likewise wait out the read, which encodes the state once per change and
// copies memoised text for every value an earlier read formatted (Fold.Hash).
func (s *Server) StateHash() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Hash()
}

// pushWindowLocked buffers a round about to be applied, with its census set:
// the snapshots are taken from the *current* (pre-fold) state. The window is
// a ring: when it is full, the entry leaving it is overwritten in place and
// its census set returned as spent. Called with s.mu held, before the round's
// fold.
func (s *Server) pushWindowLocked(round int, set *CensusSet, degraded bool) (spent *CensusSet) {
	var e *lagEntry
	if len(s.window) >= s.lag {
		e = s.window[0]
		s.window = append(s.window[:0], s.window[1:]...)
		spent = e.set
	}
	if e == nil {
		e = &lagEntry{preState: s.fold.State().Clone()}
	} else {
		e.preState.CopyFrom(s.fold.State())
	}
	s.fold.MemoryInto(&e.preFDS)
	e.round, e.set, e.degraded = round, set, degraded
	s.window = append(s.window, e)
	s.metrics.lagDepth.Set(float64(len(s.window)))
	return spent
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

// refoldLocked merges late censuses into window entry idx — copied into its
// census set, last write wins — and brings every buffered round from there
// on, and the live fold, to the timeline where they had arrived on time. The
// window holds the recorded timeline's state before and after each of those
// rounds (the next entry's snapshot; the live fold after the last), so each
// is replayed against its record (Fold.Replay): only the regions a late
// census reaches are recomputed, and snapshots and live state are rewritten
// in place where they change. Entry idx's own snapshot is never written —
// nor, then, window[0]'s, which a background checkpoint may be encoding. It
// returns the number of regions recomputed over all rounds. Called with s.mu
// held.
func (s *Server) refoldLocked(idx int, late []transport.Census) (recomputed int) {
	clear(s.div)
	e := s.window[idx]
	for i := range late {
		e.set.put(late[i].Edge, late[i].Counts, s.m*s.k) // a member's: 0 <= edge < m
		s.div[late[i].Edge] = policy.DivergedP
	}
	live := s.fold.State()
	s.fold.MemoryInto(&s.liveMem)
	for n, entry := range s.window[idx:] {
		post, postMem := live, s.liveMem
		if next := idx + n + 1; next < len(s.window) {
			post, postMem = s.window[next].preState, s.window[next].preFDS
		}
		recomputed += s.fold.Replay(entry.set, entry.preState, post, entry.preFDS, postMem, s.div)
	}
	_ = s.fold.SetMemory(s.liveMem) // the fold's own memory, so of its size
	s.metrics.refolded.Add(int64(recomputed))
	return recomputed
}

// lateLocked resolves censuses for an already-completed round through the
// lag window, one by one (see handleLateLocked). rewound tells the caller the
// published ratios changed: correction frames are due, once per submission
// however many censuses rewound. Called with s.mu held.
func (s *Server) lateLocked(round int, censuses []transport.Census) (rewound bool) {
	for i := range censuses {
		s.metrics.late.Inc()
		handled, rw := s.handleLateLocked(round, censuses[i:i+1])
		if !handled && s.lag > 0 {
			s.metrics.beyondLag.Inc()
		}
		rewound = rewound || rw
	}
	return rewound
}

// handleLateLocked resolves a census for an already-completed round through
// the lag window. It returns handled=false when the round is outside the
// window (lag disabled, round too old, or round abandoned without ever
// completing) — the census is then folded away and answered from the
// current state, the degraded path. When the census is a byte-identical
// duplicate of what the round already folded, it is absorbed without a
// rewind. Otherwise the census is merged last-write-wins, the rounds from
// there on are re-folded where it reaches (refoldLocked), and the census is
// journaled as a Corrected record — it alone: replay merges it the same way.
// late is the census, as a list of one. Called with s.mu held.
func (s *Server) handleLateLocked(round int, late []transport.Census) (handled, rewound bool) {
	idx := s.windowIndexLocked(round)
	if s.lag <= 0 || idx < 0 {
		return false, false
	}
	e, census := s.window[idx], &late[0]
	if prev := e.set.counts[census.Edge]; prev != nil && slices.Equal(prev, census.Counts) {
		s.metrics.Duplicates.Inc()
		return true, false
	}
	s.settleLocked() // the append of a round answered before it was durable may still read the window
	span := s.obsv.Span("consensus_rewind", obs.A("round", round), obs.A("edge", census.Edge))
	recomputed := s.refoldLocked(idx, late)
	replayed := len(s.window) - idx
	s.correctionSeq++
	s.metrics.rewinds.Inc()
	s.metrics.replayed.Add(int64(replayed))
	rec := durable.RoundRecord{Round: e.round, Sorted: late, Corrected: true}
	if ticket := s.journal.StartRound(rec); ticket >= 0 {
		n, err := s.journal.WaitRound(ticket)
		s.journal.Journaled(rec, n, err)
		if err != nil {
			s.journaledBelow = min(s.journaledBelow, e.round)
		}
	}
	s.logfLocked("cloud: rewound round %d for edge %d, re-folded %d regions over %d rounds (correction seq %d)",
		round, census.Edge, recomputed, replayed, s.correctionSeq)
	span.End(obs.A("replayed", replayed), obs.A("recomputed", recomputed), obs.A("seq", s.correctionSeq))
	return true, true
}

// pushCorrectionsLocked publishes a rewind's corrected ratios: every session
// is sent one frame carrying the current ratio of each region it reports for,
// except the submitters (whose census replies already carry the corrected
// ratios). A shard's session gets its whole region group in that one frame,
// an edge's its one region. See Engine.PushCorrections for the delivery
// rules. Called with s.mu held.
func (s *Server) pushCorrectionsLocked(submitted []transport.Census) {
	for i := range submitted {
		s.skip[submitted[i].Edge] = true // a validated member: 0 <= edge < m
	}
	edges, x := s.corrEdges[:0], s.corrX[:0]
	for edge := 0; edge < s.m; edge++ {
		if !s.skip[edge] {
			edges = append(edges, edge)
			x = append(x, s.fold.X(edge))
		}
	}
	clear(s.skip)
	s.corrEdges, s.corrX = edges, x
	placed := s.eng.PushCorrections(s.eng.Latest(), s.correctionSeq, edges, x)
	s.metrics.corrections.Add(int64(placed))
}
