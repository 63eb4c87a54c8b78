package cloud

import (
	"maps"

	"repro/internal/durable"
)

// Open attaches a durable state directory to the server and recovers what a
// previous process left there (see durable.Journal.Open): the checkpoint
// restores the fold, the correction sequence and the digest watermarks, and
// the journal's records replay onto it through the live rounds' fold,
// bit-identically. The server resumes at Latest()+1, answering late censuses
// for recovered rounds from the recovered state. Call after Instrument and
// before Serve.
func (s *Server) Open(stateDir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cpRound := -1 // rounds through it are inside the checkpoint
	return s.journal.Open(stateDir, durable.Owner{
		Name: "cloud",
		Restore: func(snap []byte) (int, error) {
			cp, err := s.fold.Restore(snap)
			if err == nil {
				cpRound = cp.Round
				s.eng.Advance(cp.Round)
				s.correctionSeq = cp.CorrectionSeq
				maps.Copy(s.digestMark, cp.DigestWatermarks)
			}
			return cp.Round, err
		},
		Replay:     func(rec durable.RoundRecord) (bool, error) { return s.replayLocked(rec, cpRound) },
		Checkpoint: s.checkpointLocked, Every: s.compactEvery, Observer: s.obsv, Logf: s.logf,
		Errors: s.metrics.journalErrors, Recoveries: s.metrics.recoveries, Replayed: s.metrics.replayRecords,
	})
}

// replayLocked is the journal's Replay hook. A round record the checkpoint
// does not cover goes into the lag window and through the fold. A Corrected
// one is the late census a fixed-lag rewind merged into its round (a record
// from before the delta form carries the round's whole corrected set, which
// merges to the same thing): it is merged into the buffered round and
// re-folded as the live rewind did, so the recovered history is the
// corrected one. A record no round of this cloud's could have written is
// refused (Engine.Collect). Called with s.mu held.
func (s *Server) replayLocked(rec durable.RoundRecord, cpRound int) (bool, error) {
	set, err := s.eng.Collect(rec)
	if err != nil {
		return false, err
	}
	spent := set
	defer func() { s.eng.Recycle(spent) }()
	if rec.Corrected {
		if idx := s.windowIndexLocked(rec.Round); idx >= 0 {
			s.refoldLocked(idx, set.Sorted(rec.Round))
			s.correctionSeq++
			return true, nil
		}
		if rec.Round > cpRound {
			// Not under the checkpoint and no buffered round to merge into —
			// fixed_lag shrank across the restart, or the round's own record
			// is gone. A late census alone is no round to fold.
			s.metrics.orphans.Inc()
			s.logfLocked("cloud: corrected record for round %d skipped: the round is not in the lag window, its correction is lost", rec.Round)
		}
		return false, nil
	}
	if rec.Round <= s.eng.Latest() {
		// Already covered by the checkpoint: a crash between snapshot rename
		// and journal truncate leaves such records behind.
		return false, nil
	}
	if s.lag > 0 {
		spent = s.pushWindowLocked(rec.Round, set, rec.Degraded)
	}
	if err := s.fold.ApplySet(set); err != nil {
		return false, err
	}
	s.eng.Advance(rec.Round)
	return true, nil
}

// checkpointLocked is the journal's Checkpoint hook. Without a lag window a
// checkpoint is of the current state (a clone: the next round folds into the
// live one) and no journaled round outlives it. With buffered rounds it is of
// the state *before* the oldest window entry — which no rewind writes to: one
// rewrites the snapshots after the entry it rewinds to, never window[0]'s —
// and the entry is held back from the window's ring, whose next push would
// overwrite it, until the next checkpoint (which first waits for this one's
// encode). The window's round records stay in the journal: rewinding inside
// the window must stay possible across a restart, and a checkpoint of the
// current state would make the buffered rounds unrecoverable. Called with
// s.mu held.
func (s *Server) checkpointLocked() (func() ([]byte, error), []durable.RoundRecord) {
	var cp durable.Checkpoint
	var retained []durable.RoundRecord
	if s.lag > 0 && len(s.window) > 0 {
		s.held = s.window[0]
		cp = durable.Checkpoint{Round: s.held.round - 1, State: s.held.preState, FDS: s.held.preFDS}
		for _, e := range s.window {
			retained = append(retained, durable.RoundRecord{Round: e.round, Degraded: e.degraded, Sorted: e.set.Sorted(e.round)})
		}
	} else {
		cp = s.fold.Checkpoint(s.eng.Latest())
	}
	cp.CorrectionSeq = s.correctionSeq
	if len(s.digestMark) > 0 {
		cp.DigestWatermarks = maps.Clone(s.digestMark)
	}
	return func() ([]byte, error) { return durable.EncodeCheckpoint(cp) }, retained
}

// Drain shuts the coordinator down gracefully: the most advanced pending
// barrier completes in degraded mode with whatever censuses it holds (its
// completion abandons the stale ones), a final checkpoint is written and
// waited for, and the server closes. The returned error reports checkpoint
// failure only — the shutdown itself always proceeds.
func (s *Server) Drain() error {
	s.eng.Drain()
	s.mu.Lock()
	err := s.journal.Drain()
	s.mu.Unlock()
	s.Close()
	return err
}
