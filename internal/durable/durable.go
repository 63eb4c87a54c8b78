// Package durable persists a round coordinator's consensus state across
// process death. A state directory holds a journal cut into segments,
// journal.wal (segment 0) and journal.NNNNNNNN.wal: closed ones, the active
// one (append-only, fsynced per append) and an empty spare created ahead of
// the next rotation. A checkpoint is a snapshot frame at the head of the
// segment the journal rotates into; a directory an older build wrote may
// also hold checkpoint.snap, which recovery reads when no segment has one.
//
// Every file carries CRC-framed records: a 4-byte big-endian payload length,
// a 4-byte big-endian CRC-32C (Castagnoli) of the payload, then the payload.
// A round record's payload opens with 0x01 (or '{', JSON an older build
// wrote), a snapshot frame's with 0x02. A crash mid-append leaves a torn tail
// that fails the length or CRC check; Replay truncates it away, so recovery
// always resumes from the last record whose fsync completed. A snapshot
// frame rides the next append's fsync: until then a crash may tear it, and
// recovery falls back to the previous snapshot, which is why a checkpoint's
// background job unlinks only the segments the previous snapshot covers.
// Records a snapshot covers may outlive it; the replayer skips them by
// round number. DESIGN §10.1 has the invariants and the crash windows.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	legacySnapshot = "checkpoint.snap" // an older build's checkpoint file
	journalName    = "journal.wal"

	frameHeader = 8 // 4-byte payload length + 4-byte CRC-32C

	// tagSnapshot opens a snapshot frame's payload; the checkpoint follows.
	tagSnapshot = 0x02

	// MaxRecordBytes bounds a single record (16 MiB). A length prefix
	// beyond it is treated as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("durable: store closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Hook runs before every operation that changes the state directory —
// "create" (an open that may create), "sync", "remove", "syncdir" — on the
// goroutine performing it; an error it returns fails the operation
// in its place. Tests count, interrupt and fail disk work through it.
type Hook func(op, path string) error

func (h Hook) do(op, path string, fn func() error) error {
	if h != nil {
		if err := h(op, path); err != nil {
			return err
		}
	}
	return fn()
}

func (h Hook) open(path string, flag int) (f *os.File, err error) {
	err = h.do("create", path, func() error { f, err = os.OpenFile(path, flag, 0o644); return err })
	return f, err
}

func (h Hook) sync(f *os.File) error { return h.do("sync", f.Name(), f.Sync) }

// syncDir makes a create or unlink inside the state directory durable.
func (s *Store) syncDir() error {
	if err := s.disk.do("syncdir", s.dir, s.dirf.Sync); err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}

// segment is one journal file: its number, its length in complete records
// (kept for the active one) and, once it is closed, the round every record
// in it is below (math.MaxInt in a previous process's, until a rotation).
type segment struct {
	seq, below int
	size       int64
}

// head is the snapshot a checkpoint wrote at the head of segment seq, which
// needs the records of rounds from keepFrom on beside it; seq 0 is none.
type head struct{ seq, keepFrom int }

// Store owns one state directory. All methods are safe for concurrent use.
type Store struct {
	dir  string
	dirf *os.File // the state directory, held open for its fsyncs
	disk Hook     // every change to the directory goes through it

	mu      sync.Mutex
	journal *os.File  // the active segment
	cur     segment   // its bookkeeping
	synced  int64     // the prefix of it a successful fsync covers
	closed  []segment // older segments still on disk, oldest first
	spare   *os.File  // empty segment cur.seq+1 with a durable directory entry, or nil
	frame   []byte    // the framing scratch of Append and checkpoint
	last    head      // the newest snapshot this store wrote
	legacy  bool      // a checkpoint.snap is on disk
	loaded  int       // the size of the snapshot frame LoadSnapshot found

	bg    sync.WaitGroup // the one background checkpoint in flight
	bgErr error          // its failure, until WaitCheckpoint collects it

	// Where checkpoints report (see Instrument); nil-safe.
	errs     *obs.Counter
	logf     func(format string, args ...interface{})
	bytes    *obs.Gauge
	took     *obs.Histogram
	appends  *obs.Histogram // a Journal's round appends, observed there
	segments *obs.Gauge

	// Group commit (see SetGroupCommit). With groupN <= 1 every Append
	// fsyncs on its own, the historical behavior. Otherwise appends write
	// their frames immediately and block on flushed until one fsync — run
	// by whichever appender trips the count threshold, or by the window
	// timer — covers them. writeSeq counts frames written into the file,
	// syncedSeq frames a completed fsync made durable.
	//
	// A failed fsync poisons the journal (flushErr): every Append batched
	// under the failed commit AND every later Append reports the failure,
	// until a checkpoint heals it. Not out of conservatism: the kernel may
	// have marked the dirty pages clean unwritten, and a later successful
	// fsync would leave a corrupt middle for replay to truncate at —
	// silently discarding records whose Append returned nil.
	groupN      int
	groupWindow time.Duration
	flushed     *sync.Cond
	flushing    bool
	writeSeq    int64
	syncedSeq   int64
	flushErr    error
	timer       *time.Timer
	timerArmed  bool
}

// Open creates the state directory if needed and holds it open, opens (or
// creates) its active journal segment and spare, and fsyncs the directory,
// so every segment an Append can land in has a durable entry. Call Replay
// before the first Append, so a torn tail from a previous crash is truncated
// rather than appended after. OpenHooked announces the store's disk work to
// hook.
func Open(dir string) (*Store, error) { return OpenHooked(dir, nil) }

func OpenHooked(dir string, hook Hook) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: state directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open state dir: %w", err)
	}
	entries, err := dirf.ReadDir(-1)
	if err != nil {
		dirf.Close()
		return nil, fmt.Errorf("durable: list state dir: %w", err)
	}
	s := &Store{dir: dir, dirf: dirf, disk: hook, cur: segment{below: math.MaxInt}}
	s.flushed = sync.NewCond(&s.mu)
	for _, e := range entries {
		s.legacy = s.legacy || e.Name() == legacySnapshot
		seq := 0
		_, _ = fmt.Sscanf(e.Name(), "journal.%d.wal", &seq) // no number: seq stays 0, journal.wal's
		if info, err := e.Info(); err == nil && e.Name() == filepath.Base(s.segmentPath(seq)) {
			s.closed = append(s.closed, segment{seq, math.MaxInt, info.Size()})
		}
	}
	slices.SortFunc(s.closed, func(a, b segment) int { return a.seq - b.seq })
	n := len(s.closed)
	if n > 1 && s.closed[n-1].size == 0 && s.closed[n-1].seq == s.closed[n-2].seq+1 {
		n-- // the spare a previous process left
	}
	if n > 0 {
		// A kill -9 keeps what no fsync covered, a later power loss would
		// not: synced stays 0, and the first rotation fsyncs what it closes.
		s.cur, s.closed = s.closed[n-1], s.closed[:n-1]
	}
	if s.journal, err = s.disk.open(s.segmentPath(s.cur.seq), os.O_CREATE|os.O_RDWR); err == nil {
		s.spare, err = s.createSegment(s.cur.seq + 1)
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("durable: open journal: %w", err)
	}
	return s, nil
}

func (s *Store) segmentPath(seq int) string {
	if seq == 0 {
		return filepath.Join(s.dir, journalName)
	}
	return filepath.Join(s.dir, fmt.Sprintf("journal.%08d.wal", seq))
}

func (s *Store) createSegment(seq int) (*os.File, error) {
	f, err := s.disk.open(s.segmentPath(seq), os.O_CREATE|os.O_RDWR)
	if err != nil {
		return nil, fmt.Errorf("durable: create segment: %w", err)
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// defaultGroupWindow bounds how long a lone record waits for company before
// its fsync runs anyway.
const defaultGroupWindow = 2 * time.Millisecond

// SetGroupCommit batches journal fsyncs: up to n pending Append calls share
// one fsync, flushed as soon as n records are pending or after window at
// the latest (window <= 0 uses a 2ms default). Append's durability contract
// is unchanged — it still blocks until the fsync covering its record
// completes — only the per-record fsync floor is amortized away, and only
// when several appenders are waiting at once. No node of the tier enables it:
// a Journal appends one record at a time, so no two of its appends could
// share an fsync. The benchmark's durable.append_group8_us_p50 probe and the
// tests use it. n <= 1 (the default) keeps one fsync per append. Safe to
// call only before the first Append.
func (s *Store) SetGroupCommit(n int, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if window <= 0 {
		window = defaultGroupWindow
	}
	s.groupN = n
	s.groupWindow = window
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// LoadSnapshot returns the checkpoint payload, or ok=false when no
// checkpoint has been written yet: the snapshot frame at the head of the
// newest segment that opens with a complete one — reading only the heads —
// or else an older build's checkpoint.snap. A newest head that fails its
// check is a snapshot whose fsync never came, and the previous one stands; a
// corrupt checkpoint.snap is an error: its writer renamed it into place
// whole, and silently restarting from scratch would discard real state.
func (s *Store) LoadSnapshot() (payload []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := append(s.closed[:len(s.closed):len(s.closed)], s.cur)
	for i := len(segs) - 1; i >= 0; i-- {
		if payload, ok, err = s.readHead(segs[i]); ok || err != nil {
			return payload, ok, err
		}
	}
	if !s.legacy {
		return nil, false, nil
	}
	path := filepath.Join(s.dir, legacySnapshot)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("durable: read snapshot: %w", err)
	}
	payload, n, frameOK := parseFrame(b)
	if !frameOK || n != len(b) {
		return nil, false, fmt.Errorf("durable: snapshot %s is corrupt", path)
	}
	s.loaded = n
	return payload, true, nil
}

// readHead returns the checkpoint in the snapshot frame at seg's head, if it
// opens with a complete one.
func (s *Store) readHead(seg segment) (payload []byte, ok bool, err error) {
	f, err := os.Open(s.segmentPath(seg.seq))
	if err != nil {
		return nil, false, fmt.Errorf("durable: read journal: %w", err)
	}
	defer f.Close()
	b := make([]byte, frameHeader+1)
	if _, err := f.ReadAt(b, 0); err != nil || b[frameHeader] != tagSnapshot {
		return nil, false, nil // shorter than a frame, or a round record
	}
	if n := int64(binary.BigEndian.Uint32(b)); frameHeader+n <= seg.size { // else torn: no frame
		b = make([]byte, frameHeader+n)
		if _, err := f.ReadAt(b, 0); err != nil {
			return nil, false, nil
		}
	}
	if payload, _, ok = parseFrame(b); ok {
		s.loaded = len(b)
		payload = payload[1:]
	}
	return payload, ok, nil
}

// Replay walks every segment's complete round records, oldest segment first,
// passing each payload to fn — a snapshot frame is no record — and truncates
// any torn tail left by a crash mid-append in the active one; a bad frame in
// a closed segment (fsynced through its last frame before it closed) is an
// error, like a bad checkpoint.snap. It returns the number of records
// replayed. An error from fn aborts the walk.
func (s *Store) Replay(fn func(payload []byte) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return 0, ErrStoreClosed
	}
	replayed := 0
	for _, seg := range append(s.closed[:len(s.closed):len(s.closed)], s.cur) {
		path := s.segmentPath(seg.seq)
		buf, err := os.ReadFile(path)
		if err != nil {
			return replayed, fmt.Errorf("durable: read journal: %w", err)
		}
		off := 0
		for off < len(buf) {
			payload, n, ok := parseFrame(buf[off:])
			if !ok {
				break // torn or corrupt tail: everything before it is good
			}
			off += n
			if len(payload) > 0 && payload[0] == tagSnapshot {
				continue
			}
			if err := fn(payload); err != nil {
				return replayed, err
			}
			replayed++
		}
		if seg.seq != s.cur.seq {
			if off < len(buf) {
				return replayed, fmt.Errorf("durable: closed segment %s is corrupt at byte %d", filepath.Base(path), off)
			}
			continue
		}
		if off < len(buf) {
			if err := s.journal.Truncate(int64(off)); err != nil {
				return replayed, fmt.Errorf("durable: truncate torn tail: %w", err)
			}
			if err := s.disk.sync(s.journal); err != nil {
				return replayed, fmt.Errorf("durable: sync journal: %w", err)
			}
		}
		s.cur.size, s.synced = int64(off), min(s.synced, int64(off))
	}
	return replayed, nil
}

// Append frames the payload, writes it at the active segment's end, and
// fsyncs before returning: once Append returns nil the record survives
// kill -9. Under SetGroupCommit the fsync may be shared with other pending
// appends, but the durability contract is the same.
func (s *Store) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return ErrStoreClosed
	}
	if s.flushErr != nil {
		return fmt.Errorf("durable: journal poisoned by earlier sync failure: %w", s.flushErr)
	}
	s.frame = appendFrame(s.frame[:0], payload)
	if _, err := s.journal.WriteAt(s.frame, s.cur.size); err != nil {
		return fmt.Errorf("durable: append journal: %w", err)
	}
	size := s.cur.size + int64(len(s.frame))
	if s.groupN <= 1 {
		if err := s.disk.sync(s.journal); err != nil {
			s.flushErr = err
			return fmt.Errorf("durable: sync journal: %w", err)
		}
		s.cur.size, s.synced = size, size
		return nil
	}
	s.cur.size = size
	s.writeSeq++
	seq := s.writeSeq
	if s.writeSeq-s.syncedSeq >= int64(s.groupN) && !s.flushing {
		s.flushLocked()
	} else {
		s.armTimerLocked()
	}
	// A waiter that already sat through one flush without being covered (it
	// wrote its frame while that fsync was in flight) leads the next flush
	// immediately: it has waited a full disk round-trip, which is all the
	// deadline was bounding. Only a first-round waiter holds out for the
	// count threshold or the window timer.
	waited := false
	for s.syncedSeq < seq {
		if s.journal == nil {
			return ErrStoreClosed
		}
		if s.flushErr != nil {
			return fmt.Errorf("durable: sync journal: %w", s.flushErr)
		}
		if !s.flushing && (waited || s.writeSeq-s.syncedSeq >= int64(s.groupN)) {
			s.flushLocked()
			continue
		}
		s.flushed.Wait()
		waited = true
	}
	if s.flushErr != nil {
		return fmt.Errorf("durable: sync journal: %w", s.flushErr)
	}
	return nil
}

// flushLocked runs one group fsync covering every record written so far.
// The lock is released for the fsync itself, so appenders keep writing
// frames (the next group) while the disk works. Called with s.mu held;
// returns with it held.
func (s *Store) flushLocked() {
	target, size := s.writeSeq, s.cur.size
	s.flushing = true
	s.timerArmed = false
	j := s.journal
	s.mu.Unlock()
	err := s.disk.sync(j)
	s.mu.Lock()
	s.flushing = false
	if target > s.syncedSeq {
		s.syncedSeq = target
	}
	if err == nil {
		s.synced = size
	} else if s.flushErr == nil {
		s.flushErr = err
	}
	s.flushed.Broadcast()
}

// armTimerLocked schedules the window flush for the current pending group,
// if one is not already scheduled. Called with s.mu held.
func (s *Store) armTimerLocked() {
	if s.timerArmed {
		return
	}
	s.timerArmed = true
	if s.timer == nil {
		s.timer = time.AfterFunc(s.groupWindow, s.windowFlush)
		return
	}
	s.timer.Reset(s.groupWindow)
}

// windowFlush is the timer path: flush whatever is pending when the group
// window closes, unless a count-triggered flush is already running (its
// completion wakes the waiters this timer was armed for).
func (s *Store) windowFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timerArmed = false
	if s.journal == nil || s.flushing || s.flushErr != nil || s.writeSeq <= s.syncedSeq {
		return
	}
	s.flushLocked()
}

// drainLocked waits out any in-flight group flush and fsyncs any remaining
// pending records, so callers about to swap or close the active segment
// never race a concurrent fsync or strand an un-synced append. Called with
// s.mu held.
func (s *Store) drainLocked() {
	for s.flushing {
		s.flushed.Wait()
	}
	if s.journal != nil && s.writeSeq > s.syncedSeq {
		err := s.disk.sync(s.journal)
		s.syncedSeq = s.writeSeq
		if err == nil {
			s.synced = s.cur.size
		} else if s.flushErr == nil {
			s.flushErr = err
		}
		s.flushed.Broadcast()
	}
}

// Instrument reports checkpoints and round appends through o; a background
// checkpoint's failure ticks errs and goes to logf, as a failed append does
// at the store's owner. Call before the first append.
func (s *Store) Instrument(o *obs.Observer, errs *obs.Counter, logf func(format string, args ...interface{})) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errs, s.logf = errs, logf
	s.bytes = o.Gauge("checkpoint_bytes", "size of the last checkpoint written or recovered")
	s.took = o.Histogram("durable_checkpoint_duration_seconds", "background checkpoint: unlink of the segments the previous snapshot covers, next spare", nil)
	s.appends = o.Histogram("durable_append_duration_seconds", "one round record journaled: encode, write, fsync", nil)
	s.segments = o.Gauge("durable_journal_segments", "journal segment files holding records (closed + active; the spare is not counted)")
	s.bytes.Set(float64(s.loaded))
	s.segments.Set(float64(len(s.closed) + 1))
}

// checkpoint makes snap the checkpoint over a journal whose rounds are all
// under below. It waits for the previous checkpoint, drains pending
// group-commit appends, fsyncs a head no append has (a closed segment is
// durable through its last frame), rotates to the spare and writes snap as
// the snapshot frame at its head, which the next append's fsync makes
// durable. One background goroutine then unlinks the segments the previous
// snapshot covers — it needs no round below its keepFrom, and its own
// segment has been fsynced — and prepares the next spare: none of it runs in
// front of the caller's reply.
//
// A poisoned journal is healed inline: the active segment is cut back to
// what a successful fsync covers, so that it closes clean, and the frames
// retained appends — the records from keepFrom on, which the caller holds
// in memory — follow the snapshot frame, one fsync making both durable: the
// rounds the failed fsync lost leave a gap only the snapshot covers, and a
// crash recovers both or neither.
func (s *Store) checkpoint(snap []byte, keepFrom, below int, retained func([]byte) []byte) error {
	if len(snap)+1 > MaxRecordBytes {
		return fmt.Errorf("durable: snapshot of %d bytes exceeds limit %d", len(snap), MaxRecordBytes)
	}
	_ = s.WaitCheckpoint() // a failure was counted and logged when it happened
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return ErrStoreClosed
	}
	s.drainLocked()
	healed := s.flushErr != nil
	if healed {
		// The journal stays poisoned until the snapshot frame is written: up
		// to then, the rounds the failed fsync lost are a gap nothing covers.
		err := s.journal.Truncate(s.synced)
		if err == nil {
			s.cur.size = s.synced
			err = s.disk.sync(s.journal)
		}
		if err != nil {
			return fmt.Errorf("durable: healing poisoned journal: %w", err)
		}
	} else if err := s.syncHeadLocked(); err != nil {
		return err
	}
	next := s.spare
	if s.spare = nil; next == nil {
		// The background job fell behind (or failed): create the segment here.
		var err error
		if next, err = s.createSegment(s.cur.seq + 1); err != nil {
			return err
		}
	}
	_ = s.journal.Close() // fsynced through its last frame: nothing to lose
	s.closed = append(s.closed, s.cur)
	for i := range s.closed {
		s.closed[i].below = min(s.closed[i].below, below) // news to the one just closed and to a previous process's
	}
	s.journal, s.cur, s.synced = next, segment{seq: s.cur.seq + 1, below: math.MaxInt}, 0
	s.segments.Set(float64(len(s.closed) + 1))
	s.frame = append(append(append(s.frame[:0], make([]byte, frameHeader)...), tagSnapshot), snap...)
	sealFrame(s.frame)
	s.bytes.Set(float64(len(s.frame)))
	if healed && retained != nil {
		s.frame = retained(s.frame)
	}
	if _, err := s.journal.WriteAt(s.frame, 0); err != nil {
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	if s.cur.size, s.flushErr = int64(len(s.frame)), nil; healed {
		if err := s.syncHeadLocked(); err != nil {
			return err
		}
	}
	prev := s.last
	s.last = head{s.cur.seq, keepFrom}
	s.bg.Add(1)
	go s.finishCheckpoint(prev, s.cur.seq+1)
	return nil
}

// syncHeadLocked fsyncs the active segment when it holds a snapshot frame no
// append has fsynced yet; a poisoned one waits for its heal. Called with s.mu
// held.
func (s *Store) syncHeadLocked() error {
	if s.synced == s.cur.size || s.flushErr != nil {
		return nil
	}
	if err := s.disk.sync(s.journal); err != nil {
		s.flushErr = err
		return fmt.Errorf("durable: sync snapshot: %w", err)
	}
	s.synced = s.cur.size
	return nil
}

// finishCheckpoint is the background half of checkpoint, which alone adds to
// the closed segments, and not before this returned.
func (s *Store) finishCheckpoint(prev head, spareSeq int) {
	defer s.bg.Done()
	start := time.Now()
	err := func() error {
		s.mu.Lock()
		n := 0
		for prev.seq > 0 && n < len(s.closed) && s.closed[n].seq < prev.seq && s.closed[n].below <= prev.keepFrom {
			n++
		}
		covered := s.closed[:n]
		s.closed = s.closed[n:]
		legacy := s.legacy && prev.seq > 0
		s.legacy = s.legacy && !legacy
		s.segments.Set(float64(len(s.closed) + 1))
		s.mu.Unlock()
		paths := make([]string, 0, n+1)
		for _, seg := range covered {
			paths = append(paths, s.segmentPath(seg.seq))
		}
		if legacy {
			paths = append(paths, filepath.Join(s.dir, legacySnapshot))
		}
		for _, path := range paths {
			if err := s.disk.do("remove", path, func() error { return os.Remove(path) }); err != nil {
				return fmt.Errorf("durable: unlink covered file: %w", err)
			}
		}
		spare, err := s.createSegment(spareSeq) // its directory fsync covers the unlinks
		s.mu.Lock()
		s.spare = spare
		s.mu.Unlock()
		return err
	}()
	s.took.Observe(time.Since(start).Seconds())
	if err != nil {
		s.errs.Inc()
		if s.logf != nil {
			s.logf("durable: checkpoint in %s: %v", s.dir, err)
		}
	}
	s.mu.Lock()
	s.bgErr = err
	s.mu.Unlock()
}

// WaitCheckpoint waits for a background checkpoint in flight and returns
// its failure, once.
func (s *Store) WaitCheckpoint() error {
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.bgErr
	s.bgErr = nil
	return err
}

// Close waits for a background checkpoint in flight, fsyncs a snapshot
// frame no append has, and releases the segment and directory handles.
// Further operations fail with ErrStoreClosed.
func (s *Store) Close() error {
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirf != nil {
		s.dirf.Close() // opened to read: nothing of ours to lose
		s.dirf = nil
	}
	if s.journal == nil {
		return nil
	}
	s.drainLocked()
	err := s.syncHeadLocked()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.journal = nil
	if s.spare != nil {
		_ = s.spare.Close() // empty: nothing to lose
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.flushed.Broadcast()
	return err
}

// appendFrame appends [len][crc][payload] to dst and returns it.
func appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, frameHeader)...), payload...)
	sealFrame(dst[start:])
	return dst
}

// sealFrame fills in the header of frame, whose payload follows it.
func sealFrame(frame []byte) {
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-frameHeader))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeader:], castagnoli))
}

// parseFrame reads one record from the front of b. ok is false when b holds
// no complete, CRC-valid record (a torn or corrupt tail).
func parseFrame(b []byte) (payload []byte, consumed int, ok bool) {
	if len(b) < frameHeader {
		return nil, 0, false
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxRecordBytes || frameHeader+int(n) > len(b) {
		return nil, 0, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(n), true
}
