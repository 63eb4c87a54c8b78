package durable

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// CompactEvery is how many journaled rounds a coordinator lets accumulate
// before it checkpoints, which lets the journal segments behind it go.
const CompactEvery = 32

// Journal is the one durable owner of a round coordinator — the cloud, a
// shard, a gossip node — which keeps only its hooks (Owner). It recovers the
// state directory (Open), journals each round's record ahead of its reply,
// or beside it where a lost record is re-sent (StartRound, WaitRound,
// Journaled), checkpoints on a cadence (Compact) and at a graceful shutdown
// (Drain). Its methods run under the coordinator's
// lock — all but WaitRound, which the ticket's holder may call outside it.
// From StartRound until the append has finished the appender goroutine owns
// the count and the scratch: Checkpoint and Close settle it themselves,
// AppendRound is for when none is in flight. A Journal not open journals
// nothing: a coordinator without a state directory keeps one.
type Journal struct {
	*Store
	disk    Hook  // what Open's store announces its disk work to
	every   int   // a cadence set by NewJournal in place of the owner's
	owner   Owner // set by Open
	since   int
	below   int                // every round journaled so far is below this
	payload []byte             // encoding scratch
	snap    []byte             // the checkpoint's encoding scratch
	listed  []transport.Census // the encoder's scratch for a record in map form

	// The appender, started by the first StartRound. A slot is a ticket: a
	// gossip node has one in use, the cloud one too — held past its round's
	// release when the round was answered before its record was durable,
	// until the next round, a rewind or the drain collects it — a shard one
	// per barrier whose forward is outstanding (two when a deadline
	// completes the successor), and a StartRound past the last blocks for
	// one. free holds the tickets not in use, queue the started ones in
	// order; neither send ever blocks.
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

// Owner is what a coordinator supplies to its Journal: its hooks, run under
// its lock, its cadence, and where the journal reports.
type Owner struct {
	Name string // leads its errors and log lines: "cloud", "shard 2", "gossip: edge 5"
	// Restore installs a checkpoint and returns the round it was taken after.
	Restore func(snap []byte) (round int, err error)
	// Replay applies one journaled record and reports whether it counts as
	// replayed: one the checkpoint covers does not.
	Replay func(rec RoundRecord) (applied bool, err error)
	// Checkpoint captures a checkpoint: its payload, appended to dst, and
	// the round records, oldest first, a crash must still find beside it.
	Checkpoint func(dst []byte) (snap []byte, retained []RoundRecord, err error)
	// Every is the cadence: the record that brings the count since the last
	// checkpoint to it starts the next one (0: never).
	Every int

	Observer                     *obs.Observer
	Errors, Recoveries, Replayed *obs.Counter
	Logf                         func(format string, args ...interface{})
}

func (o *Owner) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// NewJournal returns a journal, not yet open, whose store will announce its
// disk work to disk and whose cadence is every in place of its owner's (0:
// the owner's): how tests count, hold and fail a coordinator's disk work,
// and checkpoint it often.
func NewJournal(disk Hook, every int) *Journal { return &Journal{disk: disk, every: every} }

// Open opens dir as o's state directory and recovers what a previous process
// left there: o.Restore gets the checkpoint, o.Replay every journaled record,
// oldest first, and a recovery is counted and logged. Every record counts
// toward the cadence, applied or not: the cadence bounds the journal's length.
// An empty dir leaves the journal not open: the coordinator keeps no state.
func (j *Journal) Open(dir string, o Owner) error {
	if dir == "" {
		return nil
	}
	if j.Store != nil {
		return fmt.Errorf("%s: state directory already open (%s)", o.Name, j.Dir())
	}
	store, err := OpenHooked(dir, j.disk)
	if err != nil {
		return fmt.Errorf("%s: %w", o.Name, err)
	}
	through, replayed := -1, 0
	snap, restored, err := store.LoadSnapshot()
	if restored {
		if through, err = o.Restore(snap); err != nil {
			err = fmt.Errorf("checkpoint in %s: %w", dir, err)
		}
	}
	if err == nil {
		store.Instrument(o.Observer, o.Errors, o.Logf)
		j.Store = store
		err = j.Replay(func(rec RoundRecord) error {
			applied, err := o.Replay(rec)
			if err != nil {
				return fmt.Errorf("replaying round %d: %w", rec.Round, err)
			}
			if applied {
				replayed, through = replayed+1, max(through, rec.Round)
			}
			return nil
		})
		if err != nil {
			err = fmt.Errorf("journal in %s: %w", dir, err)
		}
	}
	if err != nil {
		store.Close()
		j.Store = nil
		return fmt.Errorf("%s: %w", o.Name, err)
	}
	if j.owner = o; j.every > 0 {
		j.owner.Every = j.every
	}
	if restored || replayed > 0 {
		o.Replayed.Add(int64(replayed))
		o.Recoveries.Inc()
		o.logf("%s: recovered state through round %d from %s (%d journal records replayed)", o.Name, through, dir, replayed)
	}
	return nil
}

// OpenJournal opens dir and loads its checkpoint (nil when there is none) for
// a reader that replays the journal itself; a coordinator uses Open.
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
// to apply; every one counts toward the checkpoint cadence.
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
	j.payload = appendRound(j.payload[:0], &j.listed, rec)
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
// anyone is told the round is durable. Appends run in the order started. A
// journal not open gives no ticket, -1: there is nothing to wait for.
func (j *Journal) StartRound(rec RoundRecord) (ticket int) {
	if j.Store == nil {
		return -1
	}
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

// Journaled is the step after a round's append, with what WaitRound returned:
// a record that brings the count to the cadence starts a checkpoint (a
// Corrected one counts toward none), and a failure is counted and logged
// without failing the round, whose coordinator serves on from memory. A
// failure starts a checkpoint too: a failed fsync poisons the journal, no
// append after it succeeds, and the checkpoint is what heals it.
func (j *Journal) Journaled(rec RoundRecord, since int, err error) {
	if err != nil {
		j.owner.Errors.Inc()
		j.owner.logf("%s: journaling round %d: %v", j.owner.Name, rec.Round, err)
	}
	if err != nil || !rec.Corrected && j.owner.Every > 0 && since >= j.owner.Every {
		j.Compact()
	}
}

// Compact checkpoints what the owner's Checkpoint hook captures (see
// Checkpoint); a failure is counted and logged. A journal not open, or
// closed under a forward or an escalation still in flight, has nothing left
// to bound.
func (j *Journal) Compact() {
	if j.Store == nil {
		return
	}
	if err := j.capture(); err != nil && !errors.Is(err, ErrStoreClosed) {
		j.owner.Errors.Inc()
		j.owner.logf("%s: checkpoint: %v", j.owner.Name, err)
	}
}

// capture checkpoints what the owner's Checkpoint hook encodes.
func (j *Journal) capture() error {
	snap, retained, err := j.owner.Checkpoint(j.snap[:0])
	if err != nil {
		return err
	}
	j.snap = snap
	return j.Checkpoint(snap, retained)
}

// Drain writes a graceful shutdown's last checkpoint, fsyncs it and waits
// for the background job, so a restart replays nothing; the coordinator
// closes after it.
func (j *Journal) Drain() error {
	if j.Store == nil {
		return nil
	}
	if err := j.capture(); err != nil {
		return err
	}
	err := j.WaitCheckpoint()
	j.Store.mu.Lock()
	defer j.Store.mu.Unlock()
	if j.journal == nil {
		return ErrStoreClosed
	}
	return errors.Join(err, j.syncHeadLocked())
}

// Close settles the appends in flight, stops the appender, closes the store.
func (j *Journal) Close() error {
	if j.Store == nil {
		return nil
	}
	j.inflight.Wait()
	if j.queue != nil {
		close(j.queue)
		j.queue = nil
	}
	return j.Store.Close()
}

// Checkpoint makes snap the checkpoint and restarts the cadence. retained
// are the round records, oldest first, that a crash must still find
// journaled beside it (none: it covers every journaled round). It returns
// once the journal has rotated and snap heads the new segment; the next
// append's fsync makes it durable. Only a journal poisoned by a failed fsync
// has retained appended again behind snap and fsyncs both (see
// Store.checkpoint).
func (j *Journal) Checkpoint(snap []byte, retained []RoundRecord) error {
	j.inflight.Wait() // the count and the watermark are the appender's until then
	keepFrom := math.MaxInt
	if len(retained) > 0 {
		keepFrom = retained[0].Round
	}
	err := j.Store.checkpoint(snap, keepFrom, j.below, func(dst []byte) []byte {
		for _, rec := range retained {
			j.payload = appendRound(j.payload[:0], &j.listed, rec)
			dst = appendFrame(dst, j.payload)
		}
		return dst
	})
	if err == nil {
		j.since = 0
	}
	return err
}
