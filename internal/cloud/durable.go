package cloud

import (
	"maps"
	"slices"

	"repro/internal/durable"
	"repro/internal/transport"
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
	defer func() { s.journaledBelow = s.eng.Latest() + 1 }()
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
		Checkpoint: s.checkpointLocked, Every: durable.CompactEvery, Observer: s.obsv, Logf: s.logf,
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
		// Already applied: covered by the checkpoint (a crash between
		// snapshot rename and journal truncate leaves such records behind),
		// or a lag-window round that a healed journal wrote again after its
		// snapshot (durable.Journal.Checkpoint). That copy is the newer one:
		// a census it holds otherwise is a correction the failed fsync lost,
		// merged as the live rewind did.
		if idx := s.windowIndexLocked(rec.Round); idx >= 0 {
			if late := changed(s.window[idx].set, set, rec.Round); len(late) > 0 {
				s.refoldLocked(idx, late)
				return true, nil
			}
		}
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

// changed lists the censuses of newer that old lacks or holds other counts
// for.
func changed(old, newer *CensusSet, round int) []transport.Census {
	var late []transport.Census
	for region, counts := range newer.counts {
		if counts != nil && !slices.Equal(old.counts[region], counts) {
			late = append(late, transport.Census{Edge: region, Round: round, Counts: counts})
		}
	}
	return late
}

// checkpointLocked is the journal's Checkpoint hook. Without a lag window a
// checkpoint is of the current state and no journaled round outlives it.
// With buffered rounds it is of the state *before* the oldest window entry,
// and the window's records stay journaled, so that rewinding inside the
// window stays possible across a restart. Called with s.mu held.
func (s *Server) checkpointLocked(dst []byte) ([]byte, []durable.RoundRecord, error) {
	var cp durable.Checkpoint
	var retained []durable.RoundRecord
	if s.lag > 0 && len(s.window) > 0 {
		e := s.window[0]
		cp = durable.Checkpoint{Round: e.round - 1, State: e.preState, FDS: e.preFDS}
		for _, e := range s.window {
			retained = append(retained, durable.RoundRecord{Round: e.round, Degraded: e.degraded, Sorted: e.set.Sorted(e.round)})
		}
	} else {
		cp = s.fold.Checkpoint(s.eng.Latest())
	}
	cp.CorrectionSeq = s.correctionSeq
	if len(s.digestMark) > 0 {
		cp.DigestWatermarks = maps.Clone(s.digestMark)
		for h := range cp.DigestWatermarks {
			cp.DigestWatermarks[h] = s.ackedLocked(h)
		}
	}
	snap, err := durable.AppendCheckpoint(dst, cp)
	return snap, retained, err
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
