package durable

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crashtest"
)

// openGated opens a journal in a fresh directory whose segment fsyncs the
// returned gate holds.
func openGated(t *testing.T) (*Journal, *crashtest.Gate, string) {
	t.Helper()
	dir, gate := t.TempDir(), crashtest.NewGate()
	j := NewJournal(gate.Hook, 0)
	if err := j.Open(dir, Owner{}); err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	gate.Hold(true)
	return j, gate, dir
}

// stillBlocked fails the test if done closes while the gate holds the fsync
// it is waiting behind.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned with the append's fsync still held", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// journaledRounds reopens dir and returns the rounds its journal replays.
func journaledRounds(t *testing.T, dir string) []int {
	t.Helper()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return replayedRounds(t, j)
}

// A checkpoint started while a round append is in flight settles it first:
// the record lands in the segment the rotation closes, its count is in the
// cadence the checkpoint restarts, and (under -race) the appender and the
// checkpoint never meet on the journal's count or watermark.
func TestWriteAheadCheckpointSettlesAppendInFlight(t *testing.T) {
	j, gate, dir := openGated(t)
	first := j.StartRound(round(0))
	<-gate.Reached
	done := make(chan struct{})
	var cpErr error
	go func() {
		defer close(done)
		cpErr = j.Checkpoint(payloadOf("through round 0"), nil)
	}()
	stillBlocked(t, done, "Checkpoint")
	gate.Release(nil)
	<-done
	if cpErr != nil {
		t.Fatalf("Checkpoint: %v", cpErr)
	}
	if n, err := j.WaitRound(first); n != 1 || err != nil {
		t.Fatalf("WaitRound = %d, %v, want 1 record since the checkpoint before it, nil", n, err)
	}
	gate.Hold(false)
	if n, err := j.WaitRound(j.StartRound(round(1))); n != 1 || err != nil {
		t.Fatalf("the first round after the checkpoint counted %d, %v, want 1, nil", n, err)
	}
	// The next checkpoint unlinks what the first one covers.
	if err := j.Checkpoint(payloadOf("through round 1"), []RoundRecord{round(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journaledRounds(t, dir); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("journal behind the checkpoint replays %v, want [1]: round 0 belonged to the segment it covered", got)
	}
}

// Close with an append in flight waits for it: the record is on disk when
// Close returns, and its waiter is still answered.
func TestWriteAheadCloseSettlesAppendInFlight(t *testing.T) {
	j, gate, dir := openGated(t)
	ticket := j.StartRound(round(0))
	<-gate.Reached
	done := make(chan struct{})
	go func() {
		defer close(done)
		j.Close()
	}()
	stillBlocked(t, done, "Close")
	gate.Release(nil)
	<-done
	if n, err := j.WaitRound(ticket); n != 1 || err != nil {
		t.Fatalf("WaitRound after Close = %d, %v, want 1, nil", n, err)
	}
	if got := journaledRounds(t, dir); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("journal replays %v after a Close that raced an append, want [0]", got)
	}
}

// A failed fsync surfaces at the wait of the append it failed, and poisons
// the ones behind it as it does inline.
func TestWriteAheadFailedSyncSurfacesAtWait(t *testing.T) {
	j, gate, _ := openGated(t)
	failed, behind := j.StartRound(round(0)), j.StartRound(round(1))
	<-gate.Reached
	gate.Hold(false)
	gate.Release(errors.New("injected fsync failure"))
	if n, err := j.WaitRound(failed); err == nil || !strings.Contains(err.Error(), "injected fsync failure") || n != 0 {
		t.Fatalf("WaitRound = %d, %v, want 0 and the injected failure", n, err)
	}
	if _, err := j.WaitRound(behind); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("the append behind a failed fsync returned %v, want a poisoned journal", err)
	}
}

// Waits are matched to their own append, whatever order they come in, and
// appends run in the order they were started; with every ticket out a start
// waits for one.
func TestWriteAheadWaitsMatchTheirOwnAppend(t *testing.T) {
	j, gate, dir := openGated(t)
	late := RoundRecord{Round: 1, Corrected: true, Censuses: map[int][]int{0: {9}}}
	tickets := []int{j.StartRound(round(0)), j.StartRound(round(1)), j.StartRound(late), j.StartRound(round(2))}
	<-gate.Reached
	fifth := make(chan int)
	go func() { fifth <- j.StartRound(round(3)) }()
	select {
	case <-fifth:
		t.Fatalf("a fifth StartRound got a ticket with %d in flight", len(j.slots))
	case <-time.After(20 * time.Millisecond):
	}
	gate.Hold(false)
	gate.Release(nil)
	// A Corrected record rides outside the cadence: it returns the count it found.
	for _, w := range []struct{ i, since int }{{3, 3}, {0, 1}, {2, 2}, {1, 2}} {
		if n, err := j.WaitRound(tickets[w.i]); n != w.since || err != nil {
			t.Errorf("WaitRound of start %d = %d, %v, want %d, nil", w.i, n, err, w.since)
		}
	}
	if n, err := j.WaitRound(<-fifth); n != 4 || err != nil {
		t.Errorf("WaitRound of the fifth start = %d, %v, want 4, nil", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journaledRounds(t, dir); !reflect.DeepEqual(got, []int{0, 1, 1, 2, 3}) {
		t.Fatalf("journal replays %v, want the start order [0 1 1 2 3]", got)
	}
}
