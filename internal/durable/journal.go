package durable

import "math"

// CompactEvery is how many journaled rounds a coordinator lets accumulate
// before it checkpoints, which lets the journal segments behind it go.
const CompactEvery = 32

// Journal is a Store seen the way every round coordinator uses one: round
// records appended one per completed round, a count of the records
// journaled since the last checkpoint (the checkpoint cadence), and
// checkpoints that keep the round records a crash must not lose. Unlike the
// Store's, its methods are not safe for concurrent use: the coordinator
// calls them under its own lock.
type Journal struct {
	*Store
	since   int
	below   int    // every round journaled so far is below this
	payload []byte // encoding scratch
	regions []int
}

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
	return &Journal{Store: store}, snap, nil
}

// Replay decodes every journaled round record, oldest first, and hands it
// to apply. Every record counts toward the checkpoint cadence, applied or
// skipped: the cadence bounds the journal's length.
func (j *Journal) Replay(apply func(RoundRecord) error) error {
	n, err := j.Store.Replay(func(payload []byte) error {
		rec, err := DecodeRound(payload)
		if err != nil {
			return err
		}
		j.below = max(j.below, rec.Round+1)
		return apply(rec)
	})
	j.since = n
	return err
}

// AppendRound journals one round record — fsynced before it returns, so a
// ratio answered after it is always recoverable — and returns how many
// records were journaled since the last checkpoint. A Corrected record
// rides outside that cadence.
func (j *Journal) AppendRound(rec RoundRecord) (int, error) {
	j.payload, j.regions = appendRound(j.payload[:0], j.regions[:0], rec)
	err := j.Append(j.payload)
	if err == nil && !rec.Corrected {
		j.since++
	}
	j.below = max(j.below, rec.Round+1)
	return j.since, err
}

// Checkpoint makes encode's payload the checkpoint and restarts the cadence.
// retained are the round records, oldest first, that a crash must still
// find journaled beside it (none: it covers every journaled round). It
// returns once the journal has rotated; encode runs later, on the store's
// background goroutine, over values the caller no longer writes to. Only a
// journal poisoned by a failed fsync pays inline (see Store.checkpoint) and
// has retained appended again.
func (j *Journal) Checkpoint(encode func() ([]byte, error), retained []RoundRecord) error {
	keepFrom := math.MaxInt
	if len(retained) > 0 {
		keepFrom = retained[0].Round
	}
	healed, err := j.Store.checkpoint(encode, keepFrom, j.below)
	for i := 0; healed && err == nil && i < len(retained); i++ {
		_, err = j.AppendRound(retained[i])
	}
	if err == nil {
		j.since = 0
	}
	return err
}
