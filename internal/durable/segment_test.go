package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/obs"
)

func round(n int) RoundRecord { return RoundRecord{Round: n, Censuses: map[int][]int{0: {n}}} }

func openRecorded(t *testing.T) (*Journal, *crashtest.Recorder) {
	t.Helper()
	dir := t.TempDir()
	rec := crashtest.New(t, dir)
	j := NewJournal(rec.Hook, 0)
	if err := j.Open(dir, Owner{}); err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rec
}

func indexOf(ops []string, op string, from int) int {
	for i := from; i < len(ops); i++ {
		if ops[i] == op {
			return i
		}
	}
	return -1
}

// Invariant 1: an append's frame is fsynced in a segment whose directory
// entry is already durable — whether Open created the segment, the
// background prepared it as the spare, or a rotation that found no spare
// created it inline.
func TestAppendLandsInSegmentWithDurableEntry(t *testing.T) {
	j, rec := openRecorded(t)
	if got, want := rec.Ops()[""], []string{"create journal.wal", "create journal.00000001.wal", "syncdir ."}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Open on a fresh directory did %q, want %q", got, want)
	}
	if _, err := j.AppendRound(round(0)); err != nil {
		t.Fatal(err)
	}
	// First rotation: into the spare Open prepared. The background then fails
	// to prepare the next one, so the second rotation pays inline.
	rec.Fail("create journal.00000002.wal")
	if err := j.Checkpoint(payloadOf("one"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendRound(round(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitCheckpoint(); err == nil {
		t.Fatal("the background checkpoint did not report its failed spare")
	}
	rec.Fail("")
	rec.Reset()
	if err := j.Checkpoint(payloadOf("two"), nil); err != nil {
		t.Fatalf("Checkpoint without a spare: %v", err)
	}
	if got, want := rec.Ops()[crashtest.Goroutine()], []string{"create journal.00000002.wal", "syncdir ."}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a rotation without a spare did %q on the caller's goroutine, want %q", got, want)
	}
	if _, err := j.AppendRound(round(2)); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Every segment ever fsynced was created, then the directory fsynced,
	// before its first frame.
	j2, rec2 := openRecorded(t)
	for n := 0; n < 5; n++ {
		if _, err := j2.AppendRound(round(n)); err != nil {
			t.Fatal(err)
		}
		if err := j2.Checkpoint(payloadOf("x"), nil); err != nil {
			t.Fatal(err)
		}
		if err := j2.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ops := rec2.Ops()[""]
	for i, op := range ops {
		if seg, ok := strings.CutPrefix(op, "sync journal"); ok {
			created := indexOf(ops, "create journal"+seg, 0)
			if synced := indexOf(ops, "syncdir .", created); created < 0 || synced < 0 || synced > i {
				t.Fatalf("op %d (%s) ran before the segment's entry was durable: %q", i, op, ops)
			}
		}
	}
}

// The commit-path pin: with a spare ready, the cadence round's append
// fsyncs the journal once on the journal's appender goroutine and does
// nothing else to the disk there, its checkpoint does nothing to the disk on
// the caller's, and the unlinks and the next spare run on the store's
// background goroutine.
func TestCheckpointLeavesTheCommitPath(t *testing.T) {
	j, rec := openRecorded(t)
	for n := 0; n < 4; n++ {
		if n == 3 {
			rec.Reset()
		}
		if _, err := j.WaitRound(j.StartRound(round(n))); err != nil {
			t.Fatal(err)
		}
		if n == 1 || n == 3 {
			if err := j.Checkpoint(payloadOf("state"), []RoundRecord{round(n)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	rec.Committer(t)
}

// Invariant 3: replay walks every segment oldest first and forgives a bad
// frame only at the end of the newest; in a closed segment it is an error.
func TestClosedSegmentCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if _, err := j.AppendRound(round(n)); err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			if err := j.Checkpoint(payloadOf("s"), []RoundRecord{round(0)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	crashtest.TearTail(t, dir) // forgiven: the newest segment
	j, _, err = OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := j.Replay(func(r RoundRecord) error { got = append(got, r.Round); return nil }); err != nil {
		t.Fatalf("Replay over a torn newest segment: %v", err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("replayed rounds %v across two segments, want 0-3 oldest first", got)
	}
	j.Close()

	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err = OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Replay(func(RoundRecord) error { return nil }); err == nil || !strings.Contains(err.Error(), "closed segment journal.wal is corrupt") {
		t.Fatalf("Replay over a corrupt closed segment = %v, want an error naming it", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(b)) {
		t.Fatalf("a corrupt closed segment was truncated (size %v, %v)", st.Size(), err)
	}
}

// Invariant 4: one checkpoint in flight per store. The next one waits for
// its background job rather than skipping — both snapshots are written, in
// order — and so does Close.
func TestCheckpointsRunOneAtATime(t *testing.T) {
	dir := t.TempDir()
	gate := crashtest.NewGate()
	gate.Step = "create journal.00000002.wal" // the first checkpoint's next spare
	j := NewJournal(gate.Hook, 0)
	if err := j.Open(dir, Owner{}); err != nil {
		t.Fatal(err)
	}
	gate.Hold(true)
	if _, err := j.AppendRound(round(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(payloadOf("first"), nil); err != nil {
		t.Fatal(err)
	}
	<-gate.Reached
	second := make(chan error, 1)
	go func() {
		err := j.Checkpoint(payloadOf("second"), nil)
		if err == nil {
			err = j.Close()
		}
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("a second checkpoint and Close returned (%v) while the first was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	j.mu.Lock()
	rotations := j.cur.seq
	j.mu.Unlock()
	if rotations != 1 {
		t.Fatalf("the journal rotated %d times while the first checkpoint was in flight, want 1", rotations)
	}
	gate.Hold(false)
	gate.Release(nil)
	if err := <-second; err != nil {
		t.Fatalf("second checkpoint, then Close: %v", err)
	}
	for seq, want := range map[int]string{1: "first", 2: "second"} {
		if snap, ok, err := (&Store{dir: dir}).readHead(segment{seq: seq, size: 1 << 20}); err != nil || !ok || string(snap) != want {
			t.Fatalf("segment %d opens with %q (ok=%v, %v), want %s", seq, snap, ok, err, want)
		}
	}
	if err := j.Checkpoint(payloadOf("third"), nil); err != ErrStoreClosed {
		t.Fatalf("Checkpoint on a closed journal = %v, want ErrStoreClosed", err)
	}
}

// A background checkpoint reports where Instrument pointed it: its duration,
// the snapshot's size, the segment count, and a failure to the owner's error
// counter and logger as well as to WaitCheckpoint.
func TestCheckpointMetrics(t *testing.T) {
	j, rec := openRecorded(t)
	o := obs.New()
	errs := o.Counter("durable_journal_errors_total", "")
	var logged []string
	j.Instrument(o, errs, func(format string, args ...interface{}) { logged = append(logged, format) })
	value := func(name string) float64 {
		t.Helper()
		for _, p := range o.Registry().Snapshot() {
			if p.Name == name {
				if p.Type == obs.TypeHistogram {
					return float64(p.Count)
				}
				return p.Value
			}
		}
		t.Fatalf("metric %s not registered", name)
		return 0
	}
	if value("durable_journal_segments") != 1 || value("checkpoint_bytes") != 0 {
		t.Fatalf("fresh journal: segments %v, checkpoint_bytes %v; want 1, 0", value("durable_journal_segments"), value("checkpoint_bytes"))
	}
	for n := 0; n < 2; n++ {
		if _, err := j.AppendRound(round(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(payloadOf("state"), []RoundRecord{round(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := value("checkpoint_bytes"); got != float64(frameHeader+1+len("state")) {
		t.Errorf("checkpoint_bytes = %v, want %d", got, frameHeader+1+len("state"))
	}
	if got := value("durable_journal_segments"); got != 2 {
		t.Errorf("durable_journal_segments = %v with a retained round in the closed segment, want 2", got)
	}
	if got := value("durable_checkpoint_duration_seconds"); got != 1 {
		t.Errorf("durable_checkpoint_duration_seconds observed %v checkpoints, want 1", got)
	}

	rec.Fail("create journal.00000003.wal")
	if err := j.Checkpoint(payloadOf("later"), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitCheckpoint(); err == nil {
		t.Fatal("WaitCheckpoint returned nil for a checkpoint whose spare was not created")
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatalf("WaitCheckpoint reported the same failure twice: %v", err)
	}
	if errs.Value() != 1 || len(logged) != 1 {
		t.Errorf("a failed background checkpoint ticked the error counter %d times and logged %d lines, want 1 and 1", errs.Value(), len(logged))
	}
	if got := value("durable_journal_segments"); got != 3 {
		t.Errorf("durable_journal_segments = %v after a checkpoint that unlinked nothing, want 3", got)
	}
	if snap, _, err := j.LoadSnapshot(); err != nil || string(snap) != "later" {
		t.Fatalf("snapshot after the failed background job = %q, %v; want the one at the head", snap, err)
	}
	if got := replayedRounds(t, j); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("replayed rounds %v after the failed checkpoint, want [0 1]", got)
	}
}

func replayedRounds(t *testing.T, j *Journal) []int {
	t.Helper()
	var got []int
	if err := j.Replay(func(r RoundRecord) error { got = append(got, r.Round); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}
