// Package crashtest is the test side of durable.Hook: it records which
// goroutine performed which disk operation of a store, copies the state
// directory as it stands before each step of an append or a checkpoint — the
// directories a crash at that step would leave behind — and holds an append's
// fsync while a test looks at who is answered meanwhile. Only tests import it.
package crashtest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Crash is one copied state directory and the step it was copied before.
type Crash struct {
	Step string // e.g. "before rename checkpoint.snap"
	Dir  string
}

// Recorder is a durable.Hook (its Hook method) over one state directory.
type Recorder struct {
	t   testing.TB
	dir string

	mu      sync.Mutex
	ops     [][2]string // {goroutine, "op file"}, in order
	armed   bool
	crashes []Crash
	fail    string // the "op file" to fail, "" for none
}

// New returns a recorder for the store that will open dir.
func New(t testing.TB, dir string) *Recorder {
	return &Recorder{t: t, dir: dir}
}

// Hook records the operation under the calling goroutine and, while armed,
// first copies the directory. The copy before the fsync of a journal segment
// — the one step an append takes — holds a record whose round nobody was
// told of: written ahead of the fold or forward it describes, it is what a
// crash right behind the fsync leaves, and recovery owes it the same state
// as the round's acknowledged twin.
func (r *Recorder) Hook(op, path string) error {
	file := filepath.Base(path)
	if path == r.dir {
		file = "."
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, [2]string{Goroutine(), op + " " + file})
	if r.fail == op+" "+file {
		return fmt.Errorf("crashtest: injected failure of %s", r.fail)
	}
	if r.armed {
		r.crashes = append(r.crashes, Crash{Step: fmt.Sprintf("before %s %s", op, file), Dir: CopyDir(r.t, r.dir)})
	}
	return nil
}

// Fail makes every later operation named step ("op file", as OpsBy prints
// them) fail; "" lifts it.
func (r *Recorder) Fail(step string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fail = step
}

// Reset forgets the operations recorded so far.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = nil
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

// Committer checks the commit-path pin over the operations since Reset: one
// goroutine fsynced a journal segment — the one that committed the round, or
// the journal's appender on its behalf — and did that once and nothing else;
// every create, rename, unlink and directory fsync ran on one other, the
// store's background goroutine, so none of it on the committer's either.
func (r *Recorder) Committer(t testing.TB) {
	t.Helper()
	ops := r.Ops()
	committers := 0
	for g, mine := range ops {
		for _, op := range mine {
			if g == "" {
				break
			}
			if strings.HasPrefix(op, "sync journal") {
				committers++
				if len(mine) != 1 {
					t.Errorf("goroutine %s appended a round and also did the checkpoint's disk work: %q", g, mine)
				}
				break
			}
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

// Crashes stops the copying and returns the copies taken, followed by one of
// the directory as it stands now.
func (r *Recorder) Crashes() []Crash {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = false
	out := append(r.crashes, Crash{Step: "after the last step", Dir: CopyDir(r.t, r.dir)})
	r.crashes = nil
	return out
}

// Gate is a durable.Hook (its Hook method) that holds the fsync of a journal
// segment — the one step an append takes — for as long as a test wants to
// look at what may and may not happen before the record is durable; or,
// with another Step, other operations: "create checkpoint.snap.tmp" holds a
// background checkpoint before it encodes its snapshot.
type Gate struct {
	Reached chan struct{} // one token for every operation held
	Step    string        // the "op file" held, as the Recorder names it, or a prefix; set before Hold
	release chan error
	hold    atomic.Bool
}

// NewGate returns an open gate: nothing is held until Hold(true).
func NewGate() *Gate {
	// Reached is sized past any test's appends in flight: the hook never blocks on it.
	return &Gate{Reached: make(chan struct{}, 16), Step: "sync journal", release: make(chan error)}
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
	return <-g.release
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

// TearTail appends a torn frame — a length prefix with part of its payload —
// to the active journal segment of dir (the newest, or the one before it
// when the newest is an empty spare): what a crash mid-append leaves.
func TearTail(t testing.TB, dir string) {
	t.Helper()
	names := segments(t, dir)
	n := len(names)
	if st, err := os.Stat(names[n-1]); n > 1 && err == nil && st.Size() == 0 {
		n--
	}
	f, err := os.OpenFile(names[n-1], os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.Write([]byte{0, 0, 0, 64, 1, 2, 3, 4, '{', '"', 'r'})
		f.Close()
	}
	if err != nil {
		t.Fatalf("crashtest: %v", err)
	}
}

// ParentLayout returns a copy of dir in the layout the store had before its
// journal was segmented: checkpoint.snap beside one journal.wal holding every
// record (frames delimit themselves, so the segments concatenate).
func ParentLayout(t testing.TB, dir string) string {
	t.Helper()
	dst := CopyDir(t, dir)
	var all []byte
	for _, name := range segments(t, dst) {
		b, err := os.ReadFile(name)
		if err == nil {
			err = os.Remove(name)
		}
		if err != nil {
			t.Fatalf("crashtest: %v", err)
		}
		all = append(all, b...)
	}
	if err := os.WriteFile(filepath.Join(dst, "journal.wal"), all, 0o644); err != nil {
		t.Fatalf("crashtest: %v", err)
	}
	return dst
}
