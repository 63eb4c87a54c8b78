package gossip

import (
	"errors"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestWriteAheadReplyFollowsFoldAndFsync holds the fsync of a local round's
// record and watches the commit, as the cloud's test does: the fold runs
// meanwhile (the FDS sweep is counted on an observer that needs no node
// lock), yet the round is neither counted complete nor returned from
// LocalRound until the record is durable, and it is once it is — even when
// the fsync fails, which is counted once and fails no round.
func TestWriteAheadReplyFollowsFoldAndFsync(t *testing.T) {
	sweeps := obs.New()
	n, err := NewNode(Config{
		Edge: 0, Members: []int{0}, Of: 1, EscalateEvery: 100, Fold: observedFold(t, 2, sweeps),
		PeerDial: func(int) (transport.Conn, error) { return nil, errors.New("no peers dialed") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	gate := crashtest.NewGate()
	n.journal = durable.NewJournal(gate.Hook, 0)
	if err := n.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	gate.Hold(true)

	for round, syncErr := range []error{nil, errors.New("injected fsync failure")} {
		returned := make(chan error, 1)
		go func() {
			_, err := n.LocalRound(round, counts(0, round))
			returned <- err
		}()
		<-gate.Reached
		// Failures are reported with the fsync let go: the node's lock is
		// held until it is, and Close needs it.
		deadline := time.Now().Add(5 * time.Second)
		for sweeps.Histogram("fds_update_duration_seconds", "", nil).Count() < int64(round+1) {
			if time.Now().After(deadline) {
				t.Errorf("round %d: the fold never ran beside the held fsync", round)
				break
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case err := <-returned:
			t.Errorf("round %d: LocalRound returned (%v) with the record's fsync still held", round, err)
		case <-time.After(20 * time.Millisecond):
		}
		if got := n.metrics.Rounds.Value(); got != int64(round) {
			t.Errorf("round %d: %d rounds released with the record's fsync still held, want %d", round, got, round)
		}
		gate.Release(syncErr)
		if t.Failed() {
			t.FailNow()
		}
		if err := <-returned; err != nil {
			t.Fatalf("round %d: LocalRound after the fsync was released: %v", round, err)
		}
		if got := n.Latest(); got != round {
			t.Fatalf("latest = %d after round %d", got, round)
		}
	}
	if got := n.metrics.journalErrs.Value(); got != 1 {
		t.Errorf("gossip_journal_errors_total = %d after one failed fsync, want 1", got)
	}
}
