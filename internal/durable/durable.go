// Package durable persists a round coordinator's consensus state across
// process death. A state directory holds checkpoint.snap — the latest full
// checkpoint, written atomically (tmp file + fsync + rename + directory
// fsync) — and a journal cut into segments, journal.wal (segment 0) and
// journal.NNNNNNNN.wal: closed ones, the active one (append-only, fsynced
// per append) and an empty spare created ahead of the next rotation.
//
// All files carry CRC-framed records: a 4-byte big-endian payload length,
// a 4-byte big-endian CRC-32C (Castagnoli) of the payload, then the
// payload. A crash mid-append leaves a torn tail that fails the length or
// CRC check; Replay truncates it away, so recovery always resumes from the
// last record whose fsync completed. A checkpoint rewrites no record: the
// owner rotates to the spare, a background job writes the snapshot and
// unlinks the closed segments it covers, and a crash in between only leaves
// already-checkpointed records behind, which the replayer must skip by
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
	snapshotName = "checkpoint.snap"
	journalName  = "journal.wal"

	frameHeader = 8 // 4-byte payload length + 4-byte CRC-32C

	// MaxRecordBytes bounds a single record (16 MiB). A length prefix
	// beyond it is treated as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("durable: store closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Hook runs before every operation that changes the state directory —
// "create" (an open that may create), "sync", "rename", "remove", "syncdir"
// — on the goroutine performing it; an error it returns fails the operation
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

// syncDir makes a create, rename or unlink inside dir durable.
func (h Hook) syncDir(dir string) error {
	return h.do("syncdir", dir, func() error {
		f, err := os.Open(dir)
		if err == nil {
			err = f.Sync()
			f.Close() // opened to read: nothing of ours to lose
		}
		if err != nil {
			return fmt.Errorf("durable: sync dir: %w", err)
		}
		return nil
	})
}

// segment is one journal file: its number, its length in complete records
// (kept for the active one) and, once it is closed, the round every record
// in it is below (math.MaxInt in a previous process's, until a rotation).
type segment struct {
	seq, below int
	size       int64
}

// Store owns one state directory. All methods are safe for concurrent use.
type Store struct {
	dir  string
	disk Hook // every change to the directory goes through it

	mu      sync.Mutex
	journal *os.File  // the active segment
	cur     segment   // its bookkeeping
	synced  int64     // the prefix of it a successful fsync covers
	closed  []segment // older segments still on disk, oldest first
	spare   *os.File  // empty segment cur.seq+1 with a durable directory entry, or nil
	frame   []byte    // Append's framing scratch

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

// Open creates the state directory if needed, opens (or creates) its active
// journal segment and spare, and fsyncs the directory, so every segment an
// Append can land in has a durable entry. Call Replay before the first
// Append, so a torn tail from a previous crash is truncated rather than
// appended after. OpenHooked announces the store's disk work to hook.
func Open(dir string) (*Store, error) { return OpenHooked(dir, nil) }

func OpenHooked(dir string, hook Hook) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: state directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list state dir: %w", err)
	}
	s := &Store{dir: dir, disk: hook, cur: segment{below: math.MaxInt}}
	s.flushed = sync.NewCond(&s.mu)
	for _, e := range entries {
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
		s.cur, s.closed, s.synced = s.closed[n-1], s.closed[:n-1], s.closed[n-1].size
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
	if err := s.disk.syncDir(s.dir); err != nil {
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
// checkpoint has been written yet. A checkpoint that fails its CRC is an
// error: unlike a torn journal tail, a torn checkpoint means the atomic
// rename protocol was violated (or the disk corrupted it) and silently
// restarting from scratch would discard real state.
func (s *Store) LoadSnapshot() (payload []byte, ok bool, err error) {
	path := filepath.Join(s.dir, snapshotName)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("durable: read snapshot: %w", err)
	}
	payload, n, frameOK := parseFrame(b)
	if !frameOK || n != len(b) {
		return nil, false, fmt.Errorf("durable: snapshot %s is corrupt", path)
	}
	return payload, true, nil
}

// Replay walks every segment's complete records, oldest segment first,
// passing each payload to fn, and truncates any torn tail left by a crash
// mid-append in the active one; a bad frame in a closed segment (fsynced
// through its last frame before it closed) is an error, like a bad snapshot.
// It returns the number of records replayed. An error from fn aborts the walk.
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
			if err := fn(payload); err != nil {
				return replayed, err
			}
			replayed++
			off += n
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
		s.cur.size, s.synced = int64(off), int64(off)
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
	s.took = o.Histogram("durable_checkpoint_duration_seconds", "background checkpoint: encode, snapshot, unlink of covered segments, next spare", nil)
	s.appends = o.Histogram("durable_append_duration_seconds", "one round record journaled: encode, write, fsync", nil)
	s.segments = o.Gauge("durable_journal_segments", "journal segment files holding records (closed + active; the spare is not counted)")
	if st, err := os.Stat(filepath.Join(s.dir, snapshotName)); err == nil {
		s.bytes.Set(float64(st.Size()))
	}
	s.segments.Set(float64(len(s.closed) + 1))
}

// checkpoint starts a checkpoint over a journal whose rounds are all under
// below: it waits for the previous one, drains pending group-commit appends
// and rotates to the spare. One background goroutine then encodes the
// payload, writes the snapshot, unlinks the closed segments with no round
// from keepFrom on and prepares the next spare: a snapshot only bounds
// replay, so none of it runs in front of the caller's reply.
//
// A poisoned journal is healed first, inline: the snapshot (the rounds the
// failed fsync lost leave a gap only it covers), then the active segment cut
// back to what a successful fsync covers, so that it closes clean. The
// caller then appends again what it holds in memory from keepFrom on.
func (s *Store) checkpoint(encode func() ([]byte, error), keepFrom, below int) (healed bool, err error) {
	_ = s.WaitCheckpoint() // a failure was counted and logged when it happened
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return false, ErrStoreClosed
	}
	s.drainLocked()
	if healed = s.flushErr != nil; healed {
		err := s.snapshot(encode)
		if err == nil {
			err = s.journal.Truncate(s.synced)
		}
		if err == nil {
			err = s.disk.sync(s.journal)
		}
		if err != nil {
			return false, fmt.Errorf("durable: healing poisoned journal: %w", err)
		}
		s.cur.size, s.flushErr, encode = s.synced, nil, nil
	}
	next := s.spare
	if s.spare = nil; next == nil {
		// The background job fell behind (or failed): create the segment here.
		if next, err = s.createSegment(s.cur.seq + 1); err != nil {
			return healed, err
		}
	}
	_ = s.journal.Close() // fsynced through its last frame: nothing to lose
	s.closed = append(s.closed, s.cur)
	for i := range s.closed {
		s.closed[i].below = min(s.closed[i].below, below) // news to the one just closed and to a previous process's
	}
	s.journal, s.cur, s.synced = next, segment{seq: s.cur.seq + 1, below: math.MaxInt}, 0
	s.segments.Set(float64(len(s.closed) + 1))
	s.bg.Add(1)
	go s.finishCheckpoint(encode, keepFrom, s.cur.seq+1)
	return healed, nil
}

// snapshot encodes and writes the checkpoint; a nil encode has been already.
func (s *Store) snapshot(encode func() ([]byte, error)) error {
	if encode == nil {
		return nil
	}
	payload, err := encode()
	if err == nil {
		_, err = s.WriteSnapshot(payload)
	}
	return err
}

// finishCheckpoint is the background half of checkpoint, which alone adds to
// the closed segments, and not before this returned.
func (s *Store) finishCheckpoint(encode func() ([]byte, error), keepFrom, spareSeq int) {
	defer s.bg.Done()
	start := time.Now()
	err := func() error {
		if err := s.snapshot(encode); err != nil {
			return err
		}
		s.mu.Lock()
		n := 0
		for n < len(s.closed) && s.closed[n].below <= keepFrom {
			n++
		}
		covered := s.closed[:n]
		s.closed = s.closed[n:]
		s.segments.Set(float64(len(s.closed) + 1))
		s.mu.Unlock()
		for _, seg := range covered {
			path := s.segmentPath(seg.seq)
			if err := s.disk.do("remove", path, func() error { return os.Remove(path) }); err != nil {
				return fmt.Errorf("durable: unlink covered segment: %w", err)
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

// WriteSnapshot atomically replaces the checkpoint without touching the
// journal. Returns the checkpoint size in bytes. Not for concurrent use,
// with itself or a checkpoint.
func (s *Store) WriteSnapshot(payload []byte) (int, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("durable: snapshot of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := s.disk.open(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return 0, fmt.Errorf("durable: create snapshot tmp: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := s.disk.sync(f); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("durable: close snapshot: %w", err)
	}
	path := filepath.Join(s.dir, snapshotName)
	if err := s.disk.do("rename", path, func() error { return os.Rename(tmp, path) }); err != nil {
		return 0, fmt.Errorf("durable: rename snapshot: %w", err)
	}
	if err := s.disk.syncDir(s.dir); err != nil {
		return 0, err
	}
	s.bytes.Set(float64(len(frame)))
	return len(frame), nil
}

// Close waits for a background checkpoint in flight and releases the
// segment handles. Further operations fail with ErrStoreClosed.
func (s *Store) Close() error {
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	s.drainLocked()
	err := s.journal.Close()
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
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
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
