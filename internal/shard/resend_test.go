package shard

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/crashtest"
	"repro/internal/transport"
)

// TestUpstreamDropResendsAnsweredBatch: when a shard's upstream link drops,
// the forward that redials re-sends the newest batch the shard forwarded
// ahead of its own — the aggregator, which did not crash, takes it
// as late censuses answered from current state — and folds nothing twice:
// every round once, the single-server hash.
func TestUpstreamDropResendsAnsweredBatch(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	startAggregator(t, net, "agg", agg)
	direct := newAggregator(t)
	defer direct.Close()
	c := newTestCoordinator(t, net, "agg", 0)

	const rounds = 6
	for round := 0; round < rounds; round++ {
		if round == 3 {
			c.cfg.Upstream.Close() // round 3's forward dials afresh
		}
		counts := crashCounts(round)
		got := runRound(t, c, round, counts)
		want := runDirectRound(t, direct, round, counts)
		for edge := range counts {
			if got[edge] != want[edge] {
				t.Errorf("round %d edge %d: ratio %v through the shard, %v direct", round, edge, got[edge], want[edge])
			}
		}
	}
	if got, want := agg.StateHash(), direct.StateHash(); got != want {
		t.Fatalf("aggregator hash %08x, the single server's %08x", got, want)
	}
	reg := agg.Registry()
	for name, want := range map[string]float64{
		"consensus_rounds_total":        rounds,
		"consensus_late_censuses_total": 2, // round 2's batch, re-sent once
		"consensus_rewinds_total":       0,
	} {
		if got := metricValue(t, reg, name); got != want {
			t.Errorf("aggregator %s = %v, want %v", name, got, want)
		}
	}
	if n := metricValue(t, c.Registry(), "shard_forwards_total"); n != rounds {
		t.Errorf("shard_forwards_total = %v, want %d", n, rounds)
	}
}

// TestUpstreamResendRefoldsLostRound: an aggregator answers round 5 and
// loses it — it restarts from its directory as round 4 left it, a crash
// between the answer and the record's fsync — and folds round 5 again from
// the shard's re-send on the redialed upstream: the newest batch the shard
// forwarded, ahead of round 6's. The run ends on the single server's hash,
// every round folded once.
func TestUpstreamResendRefoldsLostRound(t *testing.T) {
	net := transport.NewInprocNetwork()
	direct := newAggregator(t)
	defer direct.Close()
	c := newTestCoordinator(t, net, "agg", 0)
	serve := func(dir string) (*cloud.Server, func()) {
		t.Helper()
		agg := newAggregator(t)
		if err := agg.Open(dir); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("agg")
		if err != nil {
			t.Fatal(err)
		}
		go agg.Serve(l)
		return agg, func() { agg.Close(); l.Close() }
	}
	run := func(round int) {
		t.Helper()
		counts := crashCounts(round)
		runRound(t, c, round, counts)
		runDirectRound(t, direct, round, counts)
	}

	dir := t.TempDir()
	agg, stop := serve(dir)
	for round := 0; round < 5; round++ {
		run(round)
	}
	if err := agg.Drain(); err != nil {
		t.Fatal(err)
	}
	stop()
	lost := crashtest.CopyDir(t, dir) // durable through round 4
	_, stop = serve(dir)
	run(5)
	stop()
	agg, stop = serve(lost)
	defer stop()
	if got := agg.Latest(); got != 4 {
		t.Fatalf("restarted aggregator recovered through round %d, want 4", got)
	}
	for round := 6; round < 9; round++ {
		run(round)
	}
	if got, want := agg.StateHash(), direct.StateHash(); got != want {
		t.Fatalf("aggregator hash %08x after the re-sent round refolded, the single server's %08x", got, want)
	}
	if n := metricValue(t, agg.Registry(), "consensus_rounds_total"); n != 4 {
		t.Errorf("consensus_rounds_total = %v after the restart, want 4: rounds 5 to 8, each once", n)
	}
}
