package cloud

import (
	"fmt"

	"repro/internal/durable"
)

// Open attaches a durable state directory to the server and recovers any
// state a previous process left there: the checkpoint is loaded, the
// journal's round records are replayed onto it through the same fold the
// live rounds use (bit-identical: the checkpoint stores float64 bits), and
// the coordinator resumes at Latest()+1. Late censuses for recovered rounds
// are re-answered from the recovered state.
// Call after Instrument and before Serve; recovery is visible as
// durable_recoveries_total and journal_replay_records_total.
func (s *Server) Open(stateDir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		return fmt.Errorf("cloud: state directory already open (%s)", s.journal.Dir())
	}
	journal, cp, err := s.fold.Recover(stateDir)
	if err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	recovered := cp != nil
	cpRound := -1 // rounds through it are inside the checkpoint
	if recovered {
		cpRound = cp.Round
		s.eng.Advance(cp.Round)
		s.correctionSeq = cp.CorrectionSeq
		for h, mark := range cp.DigestWatermarks {
			s.digestMark[h] = mark
		}
	}
	journal.Instrument(s.obsv, s.metrics.journalErrors, s.logf)
	replayed := 0
	err = journal.Replay(func(rec durable.RoundRecord) error {
		if rec.Corrected {
			// A fixed-lag rewind journaled the late census it merged into this
			// round (a record from before the delta form carries the round's
			// whole corrected set, which merges to the same thing): merge it
			// into the buffered round and re-fold as the live rewind did, so
			// the recovered history is the corrected one.
			if idx := s.windowIndexLocked(rec.Round); idx >= 0 {
				s.refoldLocked(idx, rec.Censuses)
				s.correctionSeq++
				replayed++
			} else if rec.Round > cpRound {
				// Not under the checkpoint and no buffered round to merge
				// into — fixed_lag shrank across the restart, or the round's
				// own record is gone. A late census alone is no round to fold.
				s.metrics.orphans.Inc()
				s.logfLocked("cloud: corrected record for round %d skipped: the round is not in the lag window, its correction is lost", rec.Round)
			}
			return nil
		}
		if rec.Round <= s.eng.Latest() {
			// Already covered by the checkpoint: a crash between snapshot
			// rename and journal truncate leaves such records behind.
			return nil
		}
		if s.lag > 0 {
			s.eng.Recycle(s.pushWindowLocked(rec.Round, &CensusSet{Censuses: rec.Censuses}, rec.Degraded))
		}
		if err := s.fold.Apply(rec.Censuses); err != nil {
			return fmt.Errorf("replaying round %d: %w", rec.Round, err)
		}
		s.eng.Advance(rec.Round)
		replayed++
		return nil
	})
	if err != nil {
		journal.Close()
		return fmt.Errorf("cloud: journal in %s: %w", stateDir, err)
	}
	if replayed > 0 {
		s.metrics.replayRecords.Add(int64(replayed))
		recovered = true
	}
	if recovered {
		s.metrics.recoveries.Inc()
		s.logfLocked("cloud: recovered state through round %d from %s (%d journal records replayed)",
			s.eng.Latest(), stateDir, replayed)
	}
	s.journal = journal
	return nil
}

// persistRoundLocked journals a record inline, fsynced before it returns: a
// rewind's late census, marked Corrected, which recovery merges back in. A
// rewind holds s.mu like a round's completion, so no append is in flight, and
// has no fold to hide an fsync behind. No-op without an open journal.
func (s *Server) persistRoundLocked(rec durable.RoundRecord) {
	if s.journal != nil {
		n, err := s.journal.AppendRound(rec)
		s.journaledLocked(rec, n, err)
	}
}

// journaledLocked takes what rec's finished append returned and starts a
// checkpoint every compactEvery rounds, toward which a Corrected record does
// not count. Persistence failures are counted and logged but do not fail the
// round: the coordinator keeps serving from memory. Called with s.mu held.
func (s *Server) journaledLocked(rec durable.RoundRecord, n int, err error) {
	if err == nil && s.compactEvery > 0 && n >= s.compactEvery && !rec.Corrected {
		err = s.checkpointLocked()
	}
	if err != nil {
		s.metrics.journalErrors.Inc()
		s.logfLocked("cloud: journaling round %d: %v", rec.Round, err)
	}
}

// checkpointLocked captures the durable state for a checkpoint the journal
// writes in the background. Without a lag window that is the current state
// (a clone: the next round folds into the live one) and no journaled round
// outlives it. With buffered rounds it is the state *before* the oldest
// window entry — which no rewind writes to: one rewrites the snapshots after
// the entry it rewinds to, never window[0]'s — and the entry is held back
// from the window's ring, whose next push would overwrite it, until the
// next checkpoint (which first waits for this one's encode). The window's
// round records stay in the journal: rewinding inside the window must stay
// possible across a restart, and a checkpoint of the current state would
// make the buffered rounds unrecoverable. Called with s.mu held.
func (s *Server) checkpointLocked() error {
	var cp durable.Checkpoint
	var retained []durable.RoundRecord
	if s.lag > 0 && len(s.window) > 0 {
		s.held = s.window[0]
		cp = durable.Checkpoint{Round: s.held.round - 1, State: s.held.preState, FDS: s.held.preFDS}
		for _, e := range s.window {
			retained = append(retained, durable.RoundRecord{Round: e.round, Degraded: e.degraded, Censuses: e.set.Censuses})
		}
	} else {
		cp = s.fold.Checkpoint(s.eng.Latest())
	}
	cp.CorrectionSeq = s.correctionSeq
	if len(s.digestMark) > 0 {
		cp.DigestWatermarks = make(map[int]int, len(s.digestMark))
		for h, mark := range s.digestMark {
			cp.DigestWatermarks[h] = mark
		}
	}
	return s.journal.Checkpoint(func() ([]byte, error) { return durable.EncodeCheckpoint(cp) }, retained)
}

// Drain shuts the coordinator down gracefully: the most advanced pending
// barrier completes in degraded mode with whatever censuses it holds (its
// completion abandons the stale ones), a final checkpoint is written and
// waited for, and the server closes. The returned error reports checkpoint
// failure only — the shutdown itself always proceeds.
func (s *Server) Drain() error {
	s.eng.Drain()
	var err error
	s.mu.Lock()
	if s.journal != nil {
		if err = s.checkpointLocked(); err == nil {
			err = s.journal.WaitCheckpoint()
		}
	}
	s.mu.Unlock()
	s.Close()
	return err
}
