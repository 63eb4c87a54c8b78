package durable

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakySync is a Hook that fails the fsync of journal segments while armed,
// counting every attempt.
type flakySync struct {
	mu    sync.Mutex
	fail  bool
	syncs int
}

func (f *flakySync) hook(op, path string) error {
	if op != "sync" || !strings.HasSuffix(path, ".wal") {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.fail {
		return errors.New("injected fsync failure")
	}
	return nil
}

func (f *flakySync) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

// openFlaky opens a store in a fresh directory whose journal fsyncs fail.
func openFlaky(t *testing.T) (*Store, *flakySync) {
	t.Helper()
	fj := &flakySync{}
	s, err := OpenHooked(t.TempDir(), fj.hook)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fj.setFail(true)
	return s, fj
}

// TestGroupCommitSyncFailureFailsEveryWaiter is the multi-waiter error-path
// regression: when the one fsync covering a batch of Appends fails, every
// Append in the batch must report the failure — none may claim durability —
// and the journal stays poisoned for later Appends until a compaction
// rebuilds it, at which point appends work again.
func TestGroupCommitSyncFailureFailsEveryWaiter(t *testing.T) {
	s, fj := openFlaky(t)
	defer s.Close()
	const writers = 4
	s.SetGroupCommit(writers, 50*time.Millisecond)

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = s.Append([]byte(fmt.Sprintf("w%d", w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Errorf("writer %d: Append returned nil under a failed group fsync", w)
			continue
		}
		if !strings.Contains(err.Error(), "injected fsync failure") {
			t.Errorf("writer %d: error %v does not carry the fsync failure", w, err)
		}
	}

	// Even after the injected fault clears, the store must stay poisoned: a
	// later successful fsync cannot resurrect the possibly-dropped frames in
	// the middle of the file, so accepting new records would let replay
	// silently truncate them away.
	fj.setFail(false)
	if err := s.Append([]byte("after-failure")); err == nil {
		t.Fatal("Append succeeded on a poisoned journal")
	}

	// Rotation alone is no cure: the checkpoint of a poisoned journal writes
	// its snapshot inline, cuts the segment back to what a successful fsync
	// covers, and appends the retained records again from memory — which
	// must itself succeed.
	j := &Journal{Store: s}
	kept := RoundRecord{Round: 7, Censuses: map[int][]int{0: {1}}}
	fj.setFail(true)
	if err := j.Checkpoint(payloadOf("snap"), []RoundRecord{kept}); err == nil {
		t.Fatal("Checkpoint healed a journal whose fsyncs still fail")
	}
	if err := s.Append([]byte("still-poisoned")); err == nil {
		t.Fatal("Append succeeded after a failed heal")
	}
	fj.setFail(false)
	if err := j.Checkpoint(payloadOf("snap"), []RoundRecord{kept}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if snap, ok, err := s.LoadSnapshot(); err != nil || !ok || string(snap) != "snap" {
		t.Fatalf("a healing checkpoint returned before its snapshot landed: %q ok=%v err=%v", snap, ok, err)
	}
	if _, err := j.AppendRound(RoundRecord{Round: 8}); err != nil {
		t.Fatalf("AppendRound after the heal: %v", err)
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := j.Replay(func(r RoundRecord) error { got = append(got, r.Round); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("replayed rounds %v, want [7 8]", got)
	}
}

// TestGroupCommitSyncFailureFailsLaggingWaiter pins the subtler half of the
// contract: a waiter whose frame was written while the failing fsync was
// already in flight (so it was NOT covered by that commit) must also fail —
// its frame sits after the possibly-lost ones, so its durability is void
// even if its own fsync were to succeed.
func TestGroupCommitSyncFailureFailsLaggingWaiter(t *testing.T) {
	s, fj := openFlaky(t)
	defer s.Close()
	s.SetGroupCommit(2, 20*time.Millisecond)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errCh <- s.Append([]byte(fmt.Sprintf("w%d", w)))
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err == nil {
			t.Error("an Append claimed durability while every fsync was failing")
		}
	}
	// One fsync failure is enough to poison; later appends fail without
	// touching the disk again. Wait out any flush still in flight before
	// sampling the sync count.
	for {
		s.mu.Lock()
		flushing := s.flushing
		s.mu.Unlock()
		if !flushing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fj.mu.Lock()
	syncsAtPoison := fj.syncs
	fj.mu.Unlock()
	if syncsAtPoison == 0 {
		t.Fatal("no fsync ever ran — the batch never flushed")
	}
	if err := s.Append([]byte("poisoned")); err == nil {
		t.Fatal("Append succeeded on a poisoned journal")
	}
	fj.mu.Lock()
	syncsAfter := fj.syncs
	fj.mu.Unlock()
	if syncsAfter != syncsAtPoison {
		t.Errorf("poisoned Append still drove %d fsyncs", syncsAfter-syncsAtPoison)
	}
}

// Concurrent appenders under group commit must all come back durable: every
// record a returned Append wrote survives a reopen, in a consistent order.
func TestGroupCommitConcurrentAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetGroupCommit(8, time.Millisecond)

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	seen := make(map[string]bool, len(got))
	for _, rec := range got {
		seen[string(rec)] = true
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if key := fmt.Sprintf("w%d-%d", w, i); !seen[key] {
				t.Fatalf("record %s missing after replay", key)
			}
		}
	}
}

// A lone append must not wait for company forever: the window timer flushes
// it. This is the latency floor of the batched mode.
func TestGroupCommitWindowFlushesLoneAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.SetGroupCommit(1000, time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- s.Append([]byte("lonely")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone append never flushed; window timer did not fire")
	}
}

// A checkpoint must drain pending group records before it rotates, so a
// checkpoint cycle under group commit never strands an un-synced append in
// a segment it closes.
func TestGroupCommitCompactRetainDrains(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetGroupCommit(4, 50*time.Millisecond)
	// Three appenders wait for a fourth that never comes; the checkpoint's
	// drain is the fsync that releases them.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Append([]byte(fmt.Sprintf(`{"round":%d,"censuses":null}`, i))); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	for {
		s.mu.Lock()
		written := s.writeSeq
		s.mu.Unlock()
		if written == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.checkpoint(payloadOf("snap"), 2, 3, nil); err != nil { // rounds below 3 journaled, round 2 retained
		t.Fatalf("checkpoint: %v", err)
	}
	wg.Wait()
	if err := s.Append([]byte(`{"round":3,"censuses":null}`)); err != nil {
		t.Fatalf("Append after checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, snap, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	seen := map[int]bool{}
	if err := j2.Replay(func(r RoundRecord) error { seen[r.Round] = true; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(seen) != 4 {
		t.Fatalf("replayed rounds %v, want 0-3", seen)
	}
	if string(snap) != "snap" {
		t.Fatalf("snapshot = %q", snap)
	}
}
