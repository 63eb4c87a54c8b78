// Package crashtest is the test side of durable.Hook: it records which
// goroutine performed which disk operation of a store, copies the state
// directory as it stands before each step of an append or a checkpoint — the
// directories a crash at that step would leave behind, a snapshot frame no
// fsync covers yet torn among them — and holds an append's fsync while a test
// looks at who is answered meanwhile. Only tests import it.
package crashtest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// tagSnapshot opens a snapshot frame's payload, as durable writes it.
const tagSnapshot = 0x02

// Crash is one copied state directory and the step it was copied before.
type Crash struct {
	Step string // e.g. "before remove journal.wal"
	Dir  string
}

// Recorder is a durable.Hook (its Hook method) over one state directory.
type Recorder struct {
	t   testing.TB
	dir string

	mu      sync.Mutex
	ops     [][2]string // {goroutine, "op file"}, in order
	caller  string      // the goroutine that called Reset
	armed   bool
	crashes []Crash
	fail    string           // the "op file" to fail, "" for none
	fresh   map[string]bool  // segments created empty and not fsynced since
	synced  map[string]int64 // the length of a file its last fsync covered
	lost    map[string]bool  // files whose last fsync failed
}

// New returns a recorder for the store that will open dir.
func New(t testing.TB, dir string) *Recorder {
	return &Recorder{t: t, dir: dir}
}

// Hook records the operation under the calling goroutine and, while armed,
// first copies the directory. The copy before the fsync of a journal segment
// — the one step an append takes — holds a record written ahead of the fold
// or forward it describes: it is what a crash right behind the fsync leaves,
// and recovery owes it the same state as the round's acknowledged twin. A
// second copy there loses the record (loseTailLocked): what a crash before
// the fsync leaves, after a round answered ahead of it. While the newest
// segment's snapshot frame has had no fsync, a second copy tears it
// (TearHead). A file whose fsync failed is copied only as long as its last
// successful fsync covered, until one succeeds again: the kernel may have
// dropped the rest.
func (r *Recorder) Hook(op, path string) error {
	file := filepath.Base(path)
	if path == r.dir {
		file = "."
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fresh == nil {
		r.fresh, r.synced, r.lost = map[string]bool{}, map[string]int64{}, map[string]bool{}
	}
	r.ops = append(r.ops, [2]string{Goroutine(), op + " " + file})
	if r.fail != "" && strings.HasPrefix(op+" "+file, r.fail) {
		r.lost[file] = r.lost[file] || op == "sync"
		return fmt.Errorf("crashtest: injected failure of %s", r.fail)
	}
	if r.armed {
		r.copyLocked(fmt.Sprintf("before %s %s", op, file))
		if op == "sync" && strings.HasPrefix(file, "journal") {
			r.loseTailLocked(fmt.Sprintf("before %s %s, unsynced tail lost", op, file), file)
		}
	}
	switch st, err := os.Stat(path); {
	case op == "sync":
		delete(r.fresh, file)
		delete(r.lost, file)
		if err == nil {
			r.synced[file] = st.Size()
		}
	case op == "create" && (err != nil || st.Size() == 0):
		r.fresh[file] = true
	}
	return nil
}

// copyLocked copies the directory as a crash at step would leave it, and
// once more with the newest snapshot frame torn while no fsync covers it.
// Called with r.mu held.
func (r *Recorder) copyLocked(step string) {
	dir := r.cutCopyLocked()
	r.crashes = append(r.crashes, Crash{Step: step, Dir: dir})
	if len(r.fresh) > 0 && r.fresh[filepath.Base(newest(r.t, dir))] {
		torn := CopyDir(r.t, dir)
		if TearHead(r.t, torn) {
			r.crashes = append(r.crashes, Crash{Step: step + ", snapshot torn", Dir: torn})
		}
	}
}

// cutCopyLocked copies the directory, each file whose fsync failed cut back
// to what its last successful one covered. Called with r.mu held.
func (r *Recorder) cutCopyLocked() string {
	dir := CopyDir(r.t, r.dir)
	for file := range r.lost {
		r.truncate(filepath.Join(dir, file), r.synced[file])
	}
	return dir
}

func (r *Recorder) truncate(name string, size int64) {
	if st, err := os.Stat(name); err == nil && st.Size() > size {
		if err := os.Truncate(name, size); err != nil {
			r.t.Errorf("crashtest: %v", err)
		}
	}
}

// loseTailLocked copies the directory as a crash that lost what the coming
// fsync of the journal segment file was to make durable leaves it: the
// segment cut back to what its last fsync covered, so the records appended
// since are gone, a round answered before its record was durable among
// them. A segment no fsync covered yet opens with a snapshot frame, whose
// loss the torn copies stand for (copyLocked); nothing is copied for it, nor
// when nothing was appended since. Called with r.mu held.
func (r *Recorder) loseTailLocked(step, file string) {
	st, err := os.Stat(filepath.Join(r.dir, file))
	if r.fresh[file] || err != nil || st.Size() <= r.synced[file] {
		return
	}
	dir := r.cutCopyLocked()
	r.truncate(filepath.Join(dir, file), r.synced[file])
	r.crashes = append(r.crashes, Crash{Step: step, Dir: dir})
}

// Fail makes every later operation step names ("op file", as Ops prints
// them, or a prefix of it) fail; "" lifts it.
func (r *Recorder) Fail(step string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fail = step
}

// Reset forgets the operations recorded so far and names the calling
// goroutine the round's caller (see Committer).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = nil
	r.caller = Goroutine()
}

// Ops returns the operations performed since Reset, in order: all of them
// under "", and each goroutine's under its number.
func (r *Recorder) Ops() map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]string{}
	for _, op := range r.ops {
		out[""] = append(out[""], op[1])
		out[op[0]] = append(out[op[0]], op[1])
	}
	return out
}

// Committer checks the commit-path pin over the operations since Reset. The
// round's caller — the goroutine that called Reset, which must be the one
// that completed the round and so started its checkpoint — touched the disk
// not at all; one other goroutine, the journal's appender, fsynced a journal
// segment and did that once and nothing else; and every create, unlink and
// directory fsync ran on one more, the store's background goroutine.
func (r *Recorder) Committer(t testing.TB) {
	t.Helper()
	ops := r.Ops()
	if mine := ops[r.caller]; len(mine) > 0 {
		t.Errorf("the round's caller, goroutine %s, did the checkpoint's disk work: %q", r.caller, mine)
	}
	committers := 0
	for g, mine := range ops {
		if g == "" || !slices.ContainsFunc(mine, func(op string) bool { return strings.HasPrefix(op, "sync journal") }) {
			continue
		}
		if committers++; len(mine) != 1 {
			t.Errorf("goroutine %s appended a round and also did the checkpoint's disk work: %q", g, mine)
		}
	}
	if committers != 1 || len(ops) != 3 { // all of them under "", the append's, the background's
		t.Errorf("%d goroutines fsynced a journal segment and %d touched the disk, want 1 of 2: %v", committers, len(ops)-1, ops)
	}
}

// Arm starts copying the directory before every step.
func (r *Recorder) Arm() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = true
}

// Take returns the copies taken since the last Take and goes on copying.
func (r *Recorder) Take() []Crash {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.crashes
	r.crashes = nil
	return out
}

// Crashes stops the copying and returns the copies taken, followed by one of
// the directory as it stands now.
func (r *Recorder) Crashes() []Crash {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = false
	r.copyLocked("after the last step")
	out := r.crashes
	r.crashes = nil
	return out
}

// Gate is a durable.Hook (its Hook method) that holds the fsync of a journal
// segment — the one step an append takes — for as long as a test wants to
// look at what may and may not happen before the record is durable; or,
// with another Step, other operations: "create journal.00000002.wal" holds
// a background checkpoint before it prepares its spare.
type Gate struct {
	Reached chan struct{} // one token for every operation held
	Step    string        // the "op file" held, as the Recorder names it, or a prefix; set before Hold
	release chan error
	hold    atomic.Bool
	lifted  chan struct{}
	lift    sync.Once
}

// NewGate returns an open gate: nothing is held until Hold(true).
func NewGate() *Gate {
	// Reached is sized past any test's appends in flight: the hook never blocks on it.
	return &Gate{Reached: make(chan struct{}, 16), Step: "sync journal", release: make(chan error), lifted: make(chan struct{})}
}

// Lift holds nothing more and lets every held operation go, now and later:
// a test that failed with an operation held defers it before closing the
// store, which waits for the operation.
func (g *Gate) Lift() {
	g.hold.Store(false)
	g.lift.Do(func() { close(g.lifted) })
}

// Hold makes every later operation Step names wait for a Release, or lifts that.
func (g *Gate) Hold(on bool) { g.hold.Store(on) }

// Release lets one held operation go; a non-nil err fails it in its place.
func (g *Gate) Release(err error) { g.release <- err }

func (g *Gate) Hook(op, path string) error {
	if !g.hold.Load() || !strings.HasPrefix(op+" "+filepath.Base(path), g.Step) {
		return nil
	}
	g.Reached <- struct{}{}
	select {
	case err := <-g.release:
		return err
	case <-g.lifted:
		return nil
	}
}

// Goroutine returns the calling goroutine's number, as runtime.Stack prints
// it.
func Goroutine() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// CopyDir copies the files of src into a fresh temporary directory. It
// reports a failure with t.Errorf: the store's goroutines call it too.
func CopyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	for _, e := range entries {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(src, e.Name())); err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		t.Errorf("crashtest: copying %s: %v", src, err)
	}
	return dst
}

// segments returns the journal segment files of dir, oldest first.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "journal*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("crashtest: no journal segment in %s (%v)", dir, err)
	}
	if n := len(names); filepath.Base(names[n-1]) == "journal.wal" { // segment 0 sorts last
		names = append(names[n-1:], names[:n-1]...)
	}
	return names
}

// TearHead tears the snapshot frame at the head of dir's active segment (see
// newest), keeping its length and flipping its last byte, as a crash that
// lost the frame's last page leaves it; it reports whether the segment
// opened with one.
func TearHead(t testing.TB, dir string) bool {
	t.Helper()
	name := newest(t, dir)
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("crashtest: %v", err)
	}
	if len(b) < 9 || b[8] != tagSnapshot || 8+int(binary.BigEndian.Uint32(b)) > len(b) {
		return false
	}
	b[7+binary.BigEndian.Uint32(b)] ^= 0xff
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatalf("crashtest: %v", err)
	}
	return true
}

// newest returns the active journal segment of dir: the newest, or the one
// before it when the newest is an empty spare.
func newest(t testing.TB, dir string) string {
	t.Helper()
	names := segments(t, dir)
	n := len(names)
	if st, err := os.Stat(names[n-1]); n > 1 && err == nil && st.Size() == 0 {
		n--
	}
	return names[n-1]
}

// WriteLegacySnapshot writes payload as dir's checkpoint.snap, framed as
// the store's files are: the checkpoint of a build before snapshot frames.
func WriteLegacySnapshot(t testing.TB, dir string, payload []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.snap"), frame(payload), 0o644); err != nil {
		t.Fatalf("crashtest: %v", err)
	}
}

func frame(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

// TearTail appends a torn frame — a length prefix with part of its payload —
// to the active journal segment of dir (the newest, or the one before it
// when the newest is an empty spare): what a crash mid-append leaves.
func TearTail(t testing.TB, dir string) {
	t.Helper()
	f, err := os.OpenFile(newest(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write([]byte{0, 0, 0, 64, 1, 2, 3, 4, '{', '"', 'r'})
		f.Close()
	}
	if err != nil {
		t.Fatalf("crashtest: %v", err)
	}
}

// ParentLayout returns a copy of dir in the layout the store had before its
// journal was segmented: the newest snapshot frame's checkpoint as
// checkpoint.snap, beside one journal.wal holding every record (frames
// delimit themselves, so the segments concatenate once the snapshot frames
// are taken out).
func ParentLayout(t testing.TB, dir string) string {
	t.Helper()
	dst := CopyDir(t, dir)
	var all, snap []byte
	for _, name := range segments(t, dst) {
		b, err := os.ReadFile(name)
		if err == nil {
			err = os.Remove(name)
		}
		if err != nil {
			t.Fatalf("crashtest: %v", err)
		}
		for len(b) >= 8 {
			end := 8 + int(binary.BigEndian.Uint32(b))
			if end > len(b) || !bytes.Equal(frame(b[8:end]), b[:end]) {
				break // a torn tail
			}
			if b[8] == tagSnapshot {
				snap = b[9:end]
			} else {
				all = append(all, b[:end]...)
			}
			b = b[end:]
		}
	}
	if snap != nil {
		WriteLegacySnapshot(t, dst, snap)
	}
	if err := os.WriteFile(filepath.Join(dst, "journal.wal"), all, 0o644); err != nil {
		t.Fatalf("crashtest: %v", err)
	}
	return dst
}

// Explore runs the fixed schedules, then n generated from seeds 0 to n-1
// (a tenth of them under -short), each in a subtest of its own (whose copies
// go with it) through run, which returns the first way a schedule's
// recoveries went wrong. A failing schedule is shrunk — one step dropped at
// a time, for as long as it still fails — and reported with its seed, its
// setting, its failure and the shrunk steps' failure.
func Explore[C, S any](t *testing.T, n int, fixed []func() (C, []S), gen func(rng *rand.Rand) (C, []S),
	run func(t *testing.T, c C, steps []S) error) {
	t.Helper()
	if testing.Short() {
		n /= 10
	}
	for i := -len(fixed); i < n; i++ {
		name := fmt.Sprintf("seed=%d", i)
		next := func() (C, []S) { return gen(rand.New(rand.NewSource(int64(i)))) }
		if i < 0 {
			name, next = fmt.Sprintf("fixed=%d", len(fixed)+i), fixed[len(fixed)+i]
		}
		t.Run(name, func(t *testing.T) {
			c, steps := next()
			first := run(t, c, steps)
			if first == nil {
				return
			}
			err := first
			for shrunk := true; shrunk; {
				shrunk = false
				for j := range steps {
					fewer := append(steps[:j:j], steps[j+1:]...)
					if e := run(t, c, fewer); e != nil {
						steps, err, shrunk = fewer, e, true
						break
					}
				}
			}
			t.Fatalf("%s, setting %+v: %v\nshrunk schedule (%d steps): %v\n%s", name, c, first, len(steps), err, listSteps(steps))
		})
	}
}

func listSteps[S any](steps []S) string {
	var b strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&b, "  %2d %+v\n", i, s)
	}
	return b.String()
}

// Owner is a coordinator a generated schedule runs on (see Check).
type Owner[S any] interface {
	Step(S) error  // runs one step of the schedule
	State() string // what a recovery must reproduce
	Settle()       // waits out the background checkpoint; its failure is the step's
	Drain() error  // checkpoints as a graceful shutdown does, staying open
	Close()
}

// Schedule is one generated schedule and how to run it (see Check).
type Schedule[S any] struct {
	Steps []S
	// Open returns an owner whose store, on dir, announces its disk work to
	// hook; with dir "" a lossless twin that keeps no state directory.
	Open func(dir string, hook func(op, path string) error) (Owner[S], error)
	// Fail names the disk operations (a prefix) that fail while the step
	// after this one runs, "" none, and whether rounds from that step on
	// may be lost.
	Fail func(S) (op string, lossy bool)
	// Unsynced reports a step whose effect is durable only with the next
	// step's fsync (nil: none).
	Unsynced func(S) bool
	// Resume returns the first step a crash during step k, recovered into r
	// as got, runs again, or -1 when the twin never was got: want[i] is the
	// twin after i steps. Nil: the twin after step k, or before it or the
	// unsynced steps just ahead of it, or, once a lossy step came, any one
	// back to the twin before it.
	Resume func(r Owner[S], k int, got string, want []string) int
}

// Check runs s on a lossless twin and on an owner whose store copies its
// directory before every disk operation (Recorder), then drains it; the
// last copy is also given a torn tail and rewritten in the parent layout.
// An owner recovered from each copy must be a state of the twin's (see
// Resume) and, run on through the schedule from there, end where the twin
// ended. It returns the first way that failed.
func Check[S any](t *testing.T, s Schedule[S]) error {
	twin, err := s.Open("", nil)
	if err != nil {
		return err
	}
	defer twin.Close()
	want := []string{twin.State()}
	for _, st := range s.Steps {
		if err := twin.Step(st); err != nil {
			return fmt.Errorf("twin: %v", err)
		}
		want = append(want, twin.State())
	}
	want = append(want, want[len(want)-1]) // the drain
	final := want[len(want)-1]

	type taken struct {
		Crash
		step int
	}
	var copies []taken
	dir := t.TempDir()
	rec := New(t, dir)
	o, err := s.Open(dir, rec.Hook)
	if err != nil {
		return err
	}
	defer o.Close()
	rec.Arm()
	lossy := len(s.Steps) + 1 // the first step whose rounds a failure may lose
	fail, loses := "", false  // what the step before names
	for k, st := range s.Steps {
		if rec.Fail(fail); loses {
			lossy = min(lossy, k)
		}
		if err := o.Step(st); err != nil {
			return fmt.Errorf("step %d: %v", k, err)
		}
		o.Settle()
		rec.Fail("")
		fail, loses = s.Fail(st)
		for _, c := range rec.Take() {
			copies = append(copies, taken{c, k})
		}
		if got := o.State(); got != want[k+1] && lossy > k {
			return fmt.Errorf("step %d: the journaled owner is %s, its twin %s", k, got, want[k+1])
		}
	}
	if err := o.Drain(); err != nil {
		return fmt.Errorf("drain: %v", err)
	}
	for _, c := range rec.Crashes() {
		copies = append(copies, taken{c, len(s.Steps)})
	}
	last := copies[len(copies)-1].Dir
	torn := CopyDir(t, last)
	TearTail(t, torn)
	copies = append(copies, taken{Crash{"torn tail", torn}, len(s.Steps)}, taken{Crash{"parent layout", ParentLayout(t, last)}, len(s.Steps)})

	for _, c := range copies {
		r, err := s.Open(c.Dir, nil)
		if err != nil {
			return fmt.Errorf("step %d, %s: Open: %v", c.step, c.Step, err)
		}
		got, from := r.State(), -1
		if s.Resume != nil {
			from = s.Resume(r, c.step, got, want)
		} else {
			lo := c.step
			for lo > 0 && s.Unsynced != nil && s.Unsynced(s.Steps[lo-1]) {
				lo--
			}
			if c.step >= lossy {
				lo = min(lo, lossy)
			}
			for i := c.step + 1; i >= lo && from < 0; i-- {
				if want[i] == got {
					from = i
				}
			}
		}
		if from < 0 {
			return fmt.Errorf("step %d, %s: recovered %s, the twin was %s before the step and %s after", c.step, c.Step, got, want[c.step], want[c.step+1])
		}
		for _, st := range s.Steps[min(from, len(s.Steps)):] {
			if err := r.Step(st); err != nil {
				return fmt.Errorf("step %d, %s: recovered as %s, running on: %v", c.step, c.Step, got, err)
			}
		}
		if end := r.State(); end != final {
			return fmt.Errorf("step %d, %s: recovered as %s and ran on to %s, the twin ended %s", c.step, c.Step, got, end, final)
		}
		r.Close()
	}
	return nil
}
