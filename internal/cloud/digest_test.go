package cloud

import (
	"reflect"
	"strings"
	"testing"

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
	srv1.compactEvery = 1
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
