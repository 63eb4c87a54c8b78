package durable

// CompactEvery is how many journaled rounds a coordinator lets accumulate
// before folding its journal into a fresh checkpoint.
const CompactEvery = 32

// Journal is a Store seen the way every round coordinator uses one: round
// records appended one per completed round, a count of the records the
// journal holds past the last checkpoint (the compaction cadence), and
// checkpoints that retain the round records a crash must not lose.
type Journal struct {
	*Store
	since          int
	checkpointSize int
}

// CheckpointSize returns the size in bytes of the checkpoint the journal
// was opened over (0 when there was none).
func (j *Journal) CheckpointSize() int { return j.checkpointSize }

// OpenJournal opens dir as a coordinator's state directory and loads the
// checkpoint a previous process left there (nil when there is none). The
// caller restores the checkpoint, then replays the journal with Replay.
func OpenJournal(dir string) (*Journal, []byte, error) {
	store, err := Open(dir)
	if err != nil {
		return nil, nil, err
	}
	snap, _, err := store.LoadSnapshot()
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return &Journal{Store: store, checkpointSize: len(snap)}, snap, nil
}

// Replay decodes every journaled round record, oldest first, and hands it
// to apply. Every record counts toward the compaction cadence, applied or
// skipped: the cadence bounds the journal's length.
func (j *Journal) Replay(apply func(RoundRecord) error) error {
	n, err := j.Store.Replay(func(payload []byte) error {
		rec, err := DecodeRound(payload)
		if err != nil {
			return err
		}
		return apply(rec)
	})
	j.since = n
	return err
}

// AppendRound journals one round record — fsynced before it returns, so a
// ratio answered after it is always recoverable — and returns how many
// records the journal now holds past the last checkpoint.
func (j *Journal) AppendRound(rec RoundRecord) (int, error) {
	payload, err := EncodeRound(rec)
	if err == nil {
		err = j.Append(payload)
	}
	if err != nil {
		return j.since, err
	}
	j.since++
	return j.since, nil
}

// Checkpoint atomically replaces the checkpoint with payload and the
// journal's contents with the retained records (empty truncates it), and
// restarts the compaction cadence. Returns the checkpoint size in bytes.
func (j *Journal) Checkpoint(payload []byte, retained []RoundRecord) (n int, err error) {
	if len(retained) == 0 {
		n, err = j.Compact(payload)
	} else {
		records := make([][]byte, len(retained))
		for i, rec := range retained {
			if records[i], err = EncodeRound(rec); err != nil {
				return 0, err
			}
		}
		n, err = j.CompactRetain(payload, records)
	}
	if err == nil {
		j.since = 0
	}
	return n, err
}
