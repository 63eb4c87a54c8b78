package cloud

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/transport"
)

// testDigest builds a single-neighborhood digest over both regions covering
// rounds lo..hi inclusive, with the same census pair in every round.
func testDigest(lo, hi int, c0, c1 []int) transport.Digest {
	d := transport.Digest{Neighborhood: 0, Of: 1, Members: []int{0, 1}}
	for r := lo; r <= hi; r++ {
		d.Rounds = append(d.Rounds, transport.DigestRound{
			Round:    r,
			Censuses: []transport.Census{{Edge: 0, Counts: c0}, {Edge: 1, Counts: c1}},
		})
	}
	return d
}

// A digest re-sent after a lost ack — or a failed-over successor draining
// the backlog its journal reconstructed — must be adopted idempotently:
// every round below the neighborhood's watermark is acked without touching
// the fold, so the retry is indistinguishable from having never happened.
func TestDigestIdempotentAdoption(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c0, c1 := testCounts(0, 7, 10)
	first := testDigest(0, 2, c0, c1)
	reply, err := srv.SubmitDigest(first)
	if err != nil {
		t.Fatalf("first digest: %v", err)
	}
	if reply.Round != 3 {
		t.Fatalf("first reply round = %d, want 3", reply.Round)
	}
	if got := srv.Latest(); got != 2 {
		t.Fatalf("latest after first digest = %d, want 2", got)
	}
	preState := srv.State()

	// The exact same digest again: every round skipped, state untouched,
	// but the reply still identifies itself as the answer to last+1.
	reply, err = srv.SubmitDigest(first)
	if err != nil {
		t.Fatalf("retried digest: %v", err)
	}
	if reply.Round != 3 {
		t.Fatalf("retried reply round = %d, want 3", reply.Round)
	}
	if n := metricValue(t, srv.Registry(), "consensus_digest_rounds_skipped_total"); n != 3 {
		t.Fatalf("consensus_digest_rounds_skipped_total = %v, want 3", n)
	}
	if !reflect.DeepEqual(srv.State(), preState) {
		t.Fatalf("retried digest disturbed the fold:\n got %+v\nwant %+v", srv.State(), preState)
	}

	// A partially overlapping digest — the successor's backlog reaches back
	// before the watermark — skips the covered prefix and folds the rest.
	if _, err := srv.SubmitDigest(testDigest(1, 3, c0, c1)); err != nil {
		t.Fatalf("overlapping digest: %v", err)
	}
	if n := metricValue(t, srv.Registry(), "consensus_digest_rounds_skipped_total"); n != 5 {
		t.Fatalf("consensus_digest_rounds_skipped_total = %v, want 5", n)
	}
	if got := srv.Latest(); got != 3 {
		t.Fatalf("latest after overlapping digest = %d, want 3", got)
	}
}

// The first digest fixes the neighborhood count. A later digest claiming
// fewer neighborhoods would complete its rounds without the missing ones, so
// it is refused before any of its rounds is placed.
func TestDigestNeighborhoodCountIsFixed(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c0, c1 := testCounts(0, 7, 10)
	first := testDigest(0, 0, c0, c1)
	first.Of = 2
	if _, err := srv.SubmitDigest(first); err != nil {
		t.Fatalf("first digest: %v", err)
	}
	lying := testDigest(1, 1, c0, c1)
	_, err = srv.SubmitDigest(lying)
	if err == nil || !strings.Contains(err.Error(), "counts 1 neighborhoods, the cloud folds 2") {
		t.Fatalf("digest with a different count: err = %v, want a refusal naming both counts", err)
	}
	if got := srv.Latest(); got != -1 {
		t.Fatalf("latest = %d after a refused digest, want -1 (neighborhood 1 never reported)", got)
	}
}

// The per-neighborhood watermark is part of the durable checkpoint: a
// kill -9'd control plane restarted from its state directory still treats
// the old leader's re-escalation as a duplicate instead of re-folding it.
func TestDigestWatermarkSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fds1, _ := testFDS(t)
	srv1, err := NewServer(fds1, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	srv1.journal = durable.NewJournal(nil, 1)
	if err := srv1.Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}

	c0, c1 := testCounts(0, 7, 10)
	if _, err := srv1.SubmitDigest(testDigest(0, 2, c0, c1)); err != nil {
		t.Fatalf("first digest: %v", err)
	}
	// Round 3's completion checkpoints with the first digest's watermark
	// (3) already advanced; the crash below loses nothing before it.
	if _, err := srv1.SubmitDigest(testDigest(3, 3, c0, c1)); err != nil {
		t.Fatalf("second digest: %v", err)
	}
	preState := srv1.State()
	srv1.Close() // kill -9: no drain, no final checkpoint

	fds2, _ := testFDS(t)
	srv2, err := NewServer(fds2, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Open(dir); err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if !reflect.DeepEqual(srv2.State(), preState) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", srv2.State(), preState)
	}

	// The old leader re-escalates its whole backlog: every round is below
	// the recovered watermark, so the fold stays bit-identical.
	reply, err := srv2.SubmitDigest(testDigest(0, 2, c0, c1))
	if err != nil {
		t.Fatalf("re-escalation after restart: %v", err)
	}
	if reply.Round != 3 {
		t.Fatalf("re-escalation reply round = %d, want 3", reply.Round)
	}
	if n := metricValue(t, srv2.Registry(), "consensus_digest_rounds_skipped_total"); n != 3 {
		t.Fatalf("consensus_digest_rounds_skipped_total = %v, want 3", n)
	}
	if !reflect.DeepEqual(srv2.State(), preState) {
		t.Fatalf("re-escalation disturbed the recovered fold:\n got %+v\nwant %+v", srv2.State(), preState)
	}
}

// A digest ack covers no round the journal failed to make durable: after a
// failed fsync the cloud serves on from memory, its acks stay below the
// round the failed append held, so the hood keeps that round and sends it
// again, and a drain, which heals the journal, lets the next ack cover it.
func TestDigestAckStopsAtAFailedAppend(t *testing.T) {
	srv := crashServer(t, 0)
	dir := t.TempDir()
	rec := crashtest.New(t, dir)
	srv.journal = durable.NewJournal(rec.Hook, 0)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := testCounts(0, 7, 10)
	if reply, err := srv.SubmitDigest(testDigest(0, 0, c0, c1)); err != nil || reply.Acked != 1 {
		t.Fatalf("digest of round 0: acked %d, %v; want 1", reply.Acked, err)
	}
	rec.Fail("sync journal")
	reply, err := srv.SubmitDigest(testDigest(1, 2, c0, c1))
	rec.Fail("")
	if err != nil || reply.Acked != 1 || srv.Latest() != 2 {
		t.Fatalf("digest of rounds 1-2 over a failed fsync: acked %d with latest %d, %v; want 1 with 2", reply.Acked, srv.Latest(), err)
	}
	srv.mu.Lock()
	err = srv.journal.Drain()
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := srv.SubmitDigest(testDigest(1, 3, c0, c1)); err != nil || reply.Acked != 4 || srv.Latest() != 3 {
		t.Fatalf("re-sent rounds 1-2 and round 3 after a drain: acked %d with latest %d, %v; want 4 with 3", reply.Acked, srv.Latest(), err)
	}
}

// A journal one failed fsync poisoned heals on the round that failed: the
// failure starts the checkpoint that heals it, so every round after it is
// journaled and the digest ack moves past the failed round again — rather
// than every append failing, and no checkpoint, until a drain.
func TestFailedAppendHealsOnTheNextRound(t *testing.T) {
	dir := t.TempDir() // removed after the server's Close has waited out its checkpoint
	srv := crashServer(t, 0)
	failures := 1
	srv.journal = durable.NewJournal(func(op, path string) error {
		if op == "sync" && strings.HasPrefix(filepath.Base(path), "journal") && failures > 0 {
			failures--
			return errors.New("injected fsync failure")
		}
		return nil
	}, 2)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	checkpoints := func() int64 {
		if err := srv.journal.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		for _, p := range srv.Registry().Snapshot() {
			if p.Name == "durable_checkpoint_duration_seconds" {
				return p.Count
			}
		}
		t.Fatal("no durable_checkpoint_duration_seconds")
		return 0
	}
	c0, c1 := testCounts(0, 7, 10)
	acked := 0
	for round := 0; round <= 10; round++ {
		reply, err := srv.SubmitDigest(testDigest(acked, round, c0, c1))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 && (reply.Acked != 0 || checkpoints() != 1) {
			t.Fatalf("the failed round: acked %d with %d checkpoints, want 0 with the heal's 1", reply.Acked, checkpoints())
		}
		acked = reply.Acked
	}
	if acked != 11 {
		t.Errorf("acked %d after rounds 0-10, want 11", acked)
	}
	if n := metricValue(t, srv.Registry(), "durable_journal_errors_total"); n != 1 {
		t.Errorf("durable_journal_errors_total = %v after one failed fsync, want 1", n)
	}
}
