package durable

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/obs"
)

// stubOwner is a coordinator reduced to its hooks: it records the rounds
// replayed to it and counts the checkpoints it was asked for.
type stubOwner struct {
	Owner
	replayed    []int
	checkpoints int
}

func newStubOwner(every int) *stubOwner {
	o, reg := &stubOwner{}, obs.New()
	o.Owner = Owner{
		Name:    "stub",
		Restore: func([]byte) (int, error) { return 0, nil },
		Replay: func(rec RoundRecord) (bool, error) {
			o.replayed = append(o.replayed, rec.Round)
			return true, nil
		},
		Checkpoint: func(dst []byte) ([]byte, []RoundRecord, error) {
			o.checkpoints++
			return append(dst, "state"...), nil, nil
		},
		Every:      every,
		Observer:   reg,
		Errors:     reg.Counter("errors_total", ""),
		Recoveries: reg.Counter("recoveries_total", ""),
		Replayed:   reg.Counter("replayed_total", ""),
	}
	return o
}

// commit journals rec the way a coordinator does: started, waited for, then
// the step after the append.
func commit(j *Journal, rec RoundRecord) {
	n, err := j.WaitRound(j.StartRound(rec))
	j.Journaled(rec, n, err)
}

// TestJournalOwnerContract pins what the journal does for the coordinator
// that owns it, whichever one that is.
func TestJournalOwnerContract(t *testing.T) {
	corrected := RoundRecord{Round: 1, Corrected: true, Censuses: map[int][]int{0: {9}}}
	for _, tc := range []struct {
		name                string
		every               int
		run                 func(t *testing.T, j *Journal, rec *crashtest.Recorder)
		errors, checkpoints int
	}{
		{"the replay hook sees the records in journal order", 0, func(t *testing.T, j *Journal, _ *crashtest.Recorder) {
			for _, r := range []RoundRecord{round(0), round(1), round(2), corrected, round(3)} {
				commit(j, r)
			}
			j.Close()
			again, reopened := newStubOwner(0), NewJournal(nil, 0)
			if err := reopened.Open(j.Dir(), again.Owner); err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if want := []int{0, 1, 2, 1, 3}; !reflect.DeepEqual(again.replayed, want) {
				t.Errorf("replayed %v, want %v", again.replayed, want)
			}
			if again.Recoveries.Value() != 1 || again.Replayed.Value() != 5 {
				t.Errorf("%d recoveries, %d records replayed; want 1 and 5", again.Recoveries.Value(), again.Replayed.Value())
			}
		}, 0, 0},
		{"a Corrected record counts toward no cadence", 3, func(t *testing.T, j *Journal, _ *crashtest.Recorder) {
			for _, r := range []RoundRecord{round(0), round(1), corrected, corrected} {
				commit(j, r)
			}
			if j.since != 2 {
				t.Fatalf("%d records toward the cadence after two rounds and two corrections, want 2", j.since)
			}
			commit(j, round(2))
		}, 0, 1},
		{"a cadence checkpoint on a journal closed under the append is no failure", 1, func(t *testing.T, j *Journal, _ *crashtest.Recorder) {
			ticket := j.StartRound(round(0))
			j.Close()
			n, err := j.WaitRound(ticket)
			j.Journaled(round(0), n, err)
		}, 0, 1},
		{"a failed append is counted once and starts no checkpoint", 1, func(t *testing.T, j *Journal, rec *crashtest.Recorder) {
			rec.Fail("sync journal.wal")
			commit(j, round(0))
		}, 1, 0},
		{"a failed background checkpoint is counted once", 1, func(t *testing.T, j *Journal, rec *crashtest.Recorder) {
			rec.Fail("create journal.00000002.wal")
			commit(j, round(0))
			for deadline := time.Now().Add(5 * time.Second); j.owner.Errors.Value() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the background checkpoint never failed")
				}
			}
			rec.Fail("")
			commit(j, round(1)) // its checkpoint collects the failure without counting it again
			if err := j.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec := crashtest.New(t, dir)
			o := newStubOwner(tc.every)
			j := NewJournal(rec.Hook, 0)
			if err := j.Open(dir, o.Owner); err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			tc.run(t, j, rec)
			if got := o.Errors.Value(); got != int64(tc.errors) {
				t.Errorf("%d failures counted, want %d", got, tc.errors)
			}
			if o.checkpoints != tc.checkpoints {
				t.Errorf("%d checkpoints taken, want %d", o.checkpoints, tc.checkpoints)
			}
		})
	}
}
