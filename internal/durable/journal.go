package durable

import (
	"math"
	"sync"
	"time"
)

// CompactEvery is how many journaled rounds a coordinator lets accumulate
// before it checkpoints, which lets the journal segments behind it go.
const CompactEvery = 32

// Journal is a Store seen the way every round coordinator uses one: round
// records appended one per completed round, a count of the records
// journaled since the last checkpoint (the checkpoint cadence), and
// checkpoints that keep the round records a crash must not lose. Unlike the
// Store's, its methods are not safe for concurrent use: the coordinator
// calls them under its own lock — all but WaitRound, which whoever holds the
// ticket may call outside it. From StartRound until the append has finished
// the appender goroutine owns the count and the scratch: Checkpoint and
// Close settle it themselves, AppendRound is for when none is in flight.
type Journal struct {
	*Store
	since   int
	below   int         // every round journaled so far is below this
	payload []byte      // encoding scratch
	order   RegionOrder // the encoder's region-ordering scratch

	// The appender, started by the first StartRound. A slot is a ticket: the
	// cloud has one in use, a shard one per barrier whose forward is
	// outstanding (two when a deadline completes the successor), and a
	// StartRound past the last blocks for one. free holds the tickets not in
	// use, queue the started ones in order; neither send ever blocks.
	slots [4]struct {
		rec   RoundRecord
		since int
		err   error
		done  chan struct{} // the appender's hand-back
	}
	free     chan int
	queue    chan int
	inflight sync.WaitGroup // appends started and not yet finished
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
	start := time.Now()
	j.payload = appendRound(j.payload[:0], &j.order, rec)
	err := j.Append(j.payload)
	if err == nil && !rec.Corrected {
		j.since++
	}
	j.below = max(j.below, rec.Round+1)
	j.appends.Observe(time.Since(start).Seconds())
	return j.since, err
}

// StartRound is AppendRound begun on the journal's own goroutine, so that the
// caller's work on the round — its fold, its forward upstream — runs while
// the record, which holds the round's inputs and is written to by nobody, is
// encoded, written and fsynced. The ticket goes to WaitRound, once, before
// anyone is told the round is durable. Appends run in the order started.
func (j *Journal) StartRound(rec RoundRecord) (ticket int) {
	if j.queue == nil {
		j.free, j.queue = make(chan int, len(j.slots)), make(chan int, len(j.slots))
		for i := range j.slots {
			j.slots[i].done = make(chan struct{}, 1)
			j.free <- i
		}
		go func(queue <-chan int) {
			for i := range queue {
				a := &j.slots[i]
				a.since, a.err = j.AppendRound(a.rec)
				j.inflight.Done()
				a.done <- struct{}{}
			}
		}(j.queue)
	}
	ticket = <-j.free
	j.slots[ticket].rec = rec
	j.inflight.Add(1)
	j.queue <- ticket
	return ticket
}

// WaitRound blocks until the append StartRound returned ticket for has
// finished, and returns what AppendRound would have.
func (j *Journal) WaitRound(ticket int) (int, error) {
	a := &j.slots[ticket]
	<-a.done
	since, err := a.since, a.err
	a.rec = RoundRecord{} // a free ticket pins no round's censuses
	j.free <- ticket
	return since, err
}

// Close settles the appends in flight, stops the appender, closes the store.
func (j *Journal) Close() error {
	j.inflight.Wait()
	if j.queue != nil {
		close(j.queue)
		j.queue = nil
	}
	return j.Store.Close()
}

// Checkpoint makes encode's payload the checkpoint and restarts the cadence.
// retained are the round records, oldest first, that a crash must still
// find journaled beside it (none: it covers every journaled round). It
// returns once the journal has rotated; encode runs later, on the store's
// background goroutine, over values the caller no longer writes to. Only a
// journal poisoned by a failed fsync pays inline (see Store.checkpoint) and
// has retained appended again.
func (j *Journal) Checkpoint(encode func() ([]byte, error), retained []RoundRecord) error {
	j.inflight.Wait() // the count and the watermark are the appender's until then
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
