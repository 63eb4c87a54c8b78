package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// lineGraph is the 2-region test graph shared with the cloud tests.
type lineGraph struct{}

func (lineGraph) M() int { return 2 }
func (lineGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.8
	}
	return 0.2
}
func (lineGraph) Neighbors(i int) []int {
	if i == 0 {
		return []int{1}
	}
	return []int{0}
}

// newAggregator builds one aggregation-tier server over the 2-region test
// game. Each call constructs an independent but identical instance, so one
// can serve as a lossless baseline for another.
func newAggregator(t *testing.T) *cloud.Server {
	t.Helper()
	m, err := game.NewModel(lattice.PaperPayoffs(), lineGraph{}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	target := []float64{0.7, 0, 0, 0, 0, 0, 0, 0}
	field, err := policy.NewUniformField(2, target, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for k := 1; k < 8; k++ {
			field.P[i][k].Lo, field.P[i][k].Hi = 0, 1
		}
	}
	fds, err := policy.NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cloud.NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startAggregator serves srv on the in-process network under name.
func startAggregator(t *testing.T, net *transport.InprocNetwork, name string, srv *cloud.Server) {
	t.Helper()
	l, err := net.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
}

// newTestCoordinator wires a coordinator owning both regions to the named
// aggregator over the in-process network.
func newTestCoordinator(t *testing.T, net *transport.InprocNetwork, aggName string, deadline time.Duration) *Coordinator {
	t.Helper()
	upstream := &edge.BatchLink{
		Shard: 0,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial(aggName) },
			Seed:  1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 5 * time.Second,
	}
	c, err := NewCoordinator(Config{
		ID:       0,
		Regions:  []int{0, 1},
		K:        8,
		Deadline: deadline,
		Upstream: upstream,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		upstream.Close()
	})
	return c
}

func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	t.Fatalf("metric %s not in registry snapshot", name)
	return 0
}

// submit runs one census through the coordinator's ingest, the path a
// session's census takes, and returns the region's adopted ratio.
func submit(c *Coordinator, census transport.Census) (float64, error) {
	if err := c.ingest(census.Round, []transport.Census{census}); err != nil {
		return 0, err
	}
	return c.eng.Ratio(census.Edge), nil
}

// runRound drives both regions through one coordinator round concurrently
// and returns the answered ratios.
func runRound(t *testing.T, c *Coordinator, round int, counts map[int][]int) map[int]float64 {
	t.Helper()
	var mu sync.Mutex
	out := make(map[int]float64, len(counts))
	var wg sync.WaitGroup
	for edge, cs := range counts {
		edge, cs := edge, cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, err := submit(c, transport.Census{Edge: edge, Round: round, Counts: cs})
			if err != nil {
				t.Errorf("round %d edge %d: %v", round, edge, err)
				return
			}
			mu.Lock()
			out[edge] = x
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// runDirectRound drives the same censuses straight into a baseline server.
func runDirectRound(t *testing.T, srv *cloud.Server, round int, counts map[int][]int) map[int]float64 {
	t.Helper()
	var mu sync.Mutex
	out := make(map[int]float64, len(counts))
	var wg sync.WaitGroup
	for edge, cs := range counts {
		edge, cs := edge, cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, err := srv.Submit(transport.Census{Edge: edge, Round: round, Counts: cs})
			if err != nil {
				t.Errorf("baseline round %d edge %d: %v", round, edge, err)
				return
			}
			mu.Lock()
			out[edge] = x
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// TestCoordinatorAnswersAggregatorRatios: a round submitted through the
// shard coordinator produces exactly the ratios and consensus-state hash a
// direct single-server deployment produces from the same censuses.
func TestCoordinatorAnswersAggregatorRatios(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	startAggregator(t, net, "agg", agg)
	direct := newAggregator(t)
	defer direct.Close()

	c := newTestCoordinator(t, net, "agg", 0)

	rounds := []map[int][]int{
		{0: {5, 1, 0, 0, 1, 0, 1, 0}, 1: {2, 2, 1, 0, 0, 1, 0, 2}},
		{0: {6, 0, 1, 0, 0, 0, 1, 0}, 1: {4, 1, 0, 1, 0, 0, 0, 2}},
		{0: {7, 0, 0, 0, 1, 0, 0, 0}, 1: {5, 1, 1, 0, 0, 0, 0, 1}},
	}
	for round, counts := range rounds {
		got := runRound(t, c, round, counts)
		want := runDirectRound(t, direct, round, counts)
		for edge := range counts {
			if got[edge] != want[edge] {
				t.Errorf("round %d edge %d: ratio %v through shard, %v direct", round, edge, got[edge], want[edge])
			}
		}
	}
	if got, want := agg.StateHash(), direct.StateHash(); got != want {
		t.Errorf("aggregator hash %08x != direct single-server hash %08x", got, want)
	}
	if c.Latest() != 2 {
		t.Errorf("coordinator latest = %d, want 2", c.Latest())
	}
	reg := c.Registry()
	if n := metricValue(t, reg, "shard_rounds_total"); n != 3 {
		t.Errorf("shard_rounds_total = %v, want 3", n)
	}
	if n := metricValue(t, reg, "shard_forwards_total"); n != 3 {
		t.Errorf("shard_forwards_total = %v, want 3", n)
	}
}

// TestCoordinatorRefusesMixedRoundBatch: a batch handed to ingest in
// process, not decoded from a frame (where every census takes the batch's
// round), can carry a census for another round; the kernel refuses the
// batch whole, so nothing is placed or forwarded.
func TestCoordinatorRefusesMixedRoundBatch(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	startAggregator(t, net, "agg", agg)
	c := newTestCoordinator(t, net, "agg", 0)

	counts := []int{5, 1, 0, 0, 1, 0, 1, 0}
	if err := c.ingest(0, []transport.Census{
		{Edge: 0, Round: 0, Counts: counts},
		{Edge: 1, Round: 1, Counts: counts},
	}); err == nil {
		t.Fatal("a round-0 batch carrying a round-1 census was accepted")
	}
	if c.Latest() != -1 || agg.Latest() != -1 {
		t.Errorf("latest = %d (shard), %d (aggregator) after the refusal, want -1", c.Latest(), agg.Latest())
	}
	if n := metricValue(t, c.Registry(), "shard_forwards_total"); n != 0 {
		t.Errorf("shard_forwards_total = %v after the refusal, want 0", n)
	}
}

// TestCoordinatorDegradedForwardAndLateRewind: a region that misses the
// shard's deadline is forwarded late as a single-census batch, the
// aggregator rewinds its lag window, and the global fold ends bit-identical
// to a lossless baseline.
func TestCoordinatorDegradedForwardAndLateRewind(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	agg.SetFixedLag(8)
	// The aggregator's own deadline is the safety net that completes a round
	// only some shards reported into; the shard's deadline fires first.
	agg.SetRoundDeadline(50 * time.Millisecond)
	startAggregator(t, net, "agg", agg)
	baseline := newAggregator(t)
	defer baseline.Close()

	c := newTestCoordinator(t, net, "agg", 25*time.Millisecond)

	r0 := map[int][]int{0: {5, 1, 0, 0, 1, 0, 1, 0}, 1: {2, 2, 1, 0, 0, 1, 0, 2}}
	r1 := map[int][]int{0: {6, 0, 1, 0, 0, 0, 1, 0}, 1: {4, 1, 0, 1, 0, 0, 0, 2}}

	// Lossless baseline: both regions in both rounds.
	runDirectRound(t, baseline, 0, r0)

	// Through the shard: only region 0 makes round 0's deadline.
	if _, err := submit(c, transport.Census{Edge: 0, Round: 0, Counts: r0[0]}); err != nil {
		t.Fatalf("degraded round: %v", err)
	}
	// Vacuousness guard: the degraded fold must actually differ before the
	// straggler lands, or the equality below proves nothing.
	if agg.StateHash() == baseline.StateHash() {
		t.Fatal("degraded fold matches lossless baseline; rewind test is vacuous")
	}
	// The straggler arrives after the round was forwarded: relayed upstream
	// individually, aggregator rewinds, fold converges to the baseline.
	if _, err := submit(c, transport.Census{Edge: 1, Round: 0, Counts: r0[1]}); err != nil {
		t.Fatalf("late straggler: %v", err)
	}
	if got, want := agg.StateHash(), baseline.StateHash(); got != want {
		t.Fatalf("post-rewind hash %08x != lossless baseline %08x", got, want)
	}

	// A full follow-up round keeps them in lockstep.
	runDirectRound(t, baseline, 1, r1)
	runRound(t, c, 1, r1)
	if got, want := agg.StateHash(), baseline.StateHash(); got != want {
		t.Errorf("final hash %08x != lossless baseline %08x", got, want)
	}

	reg := c.Registry()
	if n := metricValue(t, reg, "shard_degraded_rounds_total"); n != 1 {
		t.Errorf("shard_degraded_rounds_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "shard_late_censuses_total"); n < 1 {
		t.Errorf("shard_late_censuses_total = %v, want >= 1", n)
	}
	if n := metricValue(t, agg.Registry(), "consensus_rewinds_total"); n < 1 {
		t.Errorf("aggregator consensus_rewinds_total = %v, want >= 1", n)
	}

	// The rewind's correction for the shard is one frame carrying region 0
	// (region 1 submitted, and was answered by reply). It is pushed from a
	// goroutine of its own and surfaces during an upstream exchange, so keep
	// the rounds going until the shard has adopted it.
	round := 2
	for patience := time.Now().Add(10 * time.Second); metricValue(t, reg, "shard_ratio_corrections_total") == 0 && time.Now().Before(patience); round++ {
		runRound(t, c, round, r1)
	}
	if n := metricValue(t, reg, "shard_ratio_corrections_total"); n != 1 {
		t.Errorf("shard_ratio_corrections_total = %v, want 1 (regions, not frames: region 0)", n)
	}
}

// TestCoordinatorRecoversWatermark: a coordinator that crashes after
// journaling a round recovers its watermark from the state directory,
// re-forwards the journaled batch (the aggregator absorbs the duplicate),
// and continues with the next round.
func TestCoordinatorRecoversWatermark(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	agg.SetFixedLag(8)
	startAggregator(t, net, "agg", agg)

	dir := t.TempDir()
	r0 := map[int][]int{0: {5, 1, 0, 0, 1, 0, 1, 0}, 1: {2, 2, 1, 0, 0, 1, 0, 2}}

	c1 := newTestCoordinator(t, net, "agg", 0)
	if err := c1.Open(dir); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, c1.Registry(), "durable_recoveries_total"); n != 0 {
		t.Fatalf("fresh state dir counted a recovery: %v", n)
	}
	runRound(t, c1, 0, r0)
	hashBefore := agg.StateHash()
	c1.Close()

	c2 := newTestCoordinator(t, net, "agg", 0)
	if err := c2.Open(dir); err != nil {
		t.Fatal(err)
	}
	if c2.Latest() != 0 {
		t.Errorf("recovered latest = %d, want 0", c2.Latest())
	}
	reg := c2.Registry()
	if n := metricValue(t, reg, "durable_recoveries_total"); n != 1 {
		t.Errorf("durable_recoveries_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "journal_replay_records_total"); n != 1 {
		t.Errorf("journal_replay_records_total = %v, want 1", n)
	}

	// A replayed census for round 0 is late to the recovered coordinator and
	// must be answered, not re-barriered.
	if _, err := submit(c2, transport.Census{Edge: 0, Round: 0, Counts: r0[0]}); err != nil {
		t.Fatalf("late census after recovery: %v", err)
	}

	// Round 1 proceeds normally on the recovered watermark.
	r1 := map[int][]int{0: {6, 0, 1, 0, 0, 0, 1, 0}, 1: {4, 1, 0, 1, 0, 0, 0, 2}}
	runRound(t, c2, 1, r1)
	if c2.Latest() != 1 {
		t.Errorf("latest after recovery round = %d, want 1", c2.Latest())
	}
	// The recovery re-forward duplicates round 0 byte-for-byte, so it must
	// not have disturbed the aggregator's fold before round 1.
	if agg.StateHash() == hashBefore {
		t.Log("round 1 left the hash unchanged (fold converged); fine")
	}
	c2.Close()
}

// TestSessionDropsUnexpectedFrames: a shard's session counts a frame it does
// not serve — a digest, which only the cloud reconciles, or a vehicle's
// policy — as a decode failure and drops it, keeping the conn: the lease
// renewal after them is acked.
func TestSessionDropsUnexpectedFrames(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	startAggregator(t, net, "agg", agg)
	c := newTestCoordinator(t, net, "agg", 0)
	l, err := net.Listen("shard")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go c.Serve(l)
	conn, err := net.Dial("shard")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := session.Wrap(conn)
	digest := &transport.Digest{Of: 1, Members: []int{0}, Rounds: []transport.DigestRound{{Round: 0}}}
	if err := sess.Send(transport.KindDigest, digest); err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(transport.KindPolicy, &transport.Policy{Round: 0, X: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Notify(transport.KindLease, transport.Lease{Edge: 0, TTLMillis: 60000}, 5*time.Second); err != nil {
		t.Fatalf("the lease renewal after them: %v", err)
	}
	if n := metricValue(t, c.Registry(), "shard_decode_failures_total"); n != 2 {
		t.Errorf("shard_decode_failures_total = %v, want 2", n)
	}
	if agg.Latest() != -1 {
		t.Errorf("the aggregator completed round %d", agg.Latest())
	}
}

// TestCoordinatorLeaseQuorum: once leases are in play, a round completes as
// soon as every live-leased region reports, and an evicted region's
// straggler is relayed late.
func TestCoordinatorLeaseQuorum(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	agg.SetFixedLag(8)
	agg.SetRoundDeadline(50 * time.Millisecond)
	startAggregator(t, net, "agg", agg)

	c := newTestCoordinator(t, net, "agg", 0)
	if err := c.RenewLease(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.RenewLease(1, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.RenewLease(7, time.Hour); err == nil {
		t.Error("lease outside the owned group must be rejected")
	}

	// Region 1's lease lapses; the round must complete on region 0 alone.
	x, err := submit(c, transport.Census{Edge: 0, Round: 0, Counts: []int{5, 1, 0, 0, 1, 0, 1, 0}})
	if err != nil {
		t.Fatalf("leased quorum round: %v", err)
	}
	if x <= 0 || x > 1 {
		t.Errorf("ratio %v out of range", x)
	}
	reg := c.Registry()
	if n := metricValue(t, reg, "lease_evictions_total"); n != 1 {
		t.Errorf("lease_evictions_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "shard_degraded_rounds_total"); n != 1 {
		t.Errorf("shard_degraded_rounds_total = %v, want 1", n)
	}
}
