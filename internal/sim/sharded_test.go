package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/transport"
)

// shardedRegions is the sharded golden run's region count: enough for a
// 4-shard ring to give every coordinator a non-trivial group (the 16x4
// assignment is pinned by the golden table test in internal/shard).
const shardedRegions = 16

// ringGraph couples shardedRegions regions in a cycle, so every region
// interacts across whatever shard boundary the hash ring draws — the fold
// is genuinely global and any shard-local shortcut would change the hash.
type ringGraph struct{}

func (ringGraph) M() int { return shardedRegions }
func (ringGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.6
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	if d == 1 || d == shardedRegions-1 {
		return 0.2
	}
	return 0
}
func (ringGraph) Neighbors(i int) []int {
	return []int{(i + shardedRegions - 1) % shardedRegions, (i + 1) % shardedRegions}
}

// shardedFDS builds a fresh controller over the ring graph per run.
func shardedFDS(t *testing.T) *policy.FDS {
	t.Helper()
	masses := make([]float64, shardedRegions)
	for i := range masses {
		masses[i] = 3
	}
	m, err := game.NewModel(lattice.PaperPayoffs(), ringGraph{}, masses)
	if err != nil {
		t.Fatal(err)
	}
	target := []float64{0.7, 0, 0, 0, 0, 0, 0, 0}
	field, err := policy.NewUniformField(shardedRegions, target, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shardedRegions; i++ {
		for k := 1; k < 8; k++ {
			field.P[i][k].Lo, field.P[i][k].Hi = 0, 1
		}
	}
	fds, err := policy.NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return fds
}

// runShardedLossless folds every scripted census through full single-server
// barriers — the golden trajectory the sharded topology must reproduce.
func runShardedLossless(t *testing.T, rounds int) (*game.State, uint32) {
	t.Helper()
	srv, err := cloud.NewServer(shardedFDS(t), game.NewUniformState(shardedRegions, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, shardedRegions)
		for i := 0; i < shardedRegions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = srv.Submit(transport.Census{Edge: i, Round: round, Counts: fixedLagCounts(i, round)})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("lossless region %d round %d: %v", i, round, err)
			}
		}
	}
	return srv.State(), srv.StateHash()
}

// listenTCPRetry binds addr, retrying briefly (a just-closed listener's
// port may take a moment to release).
func listenTCPRetry(t *testing.T, addr string) transport.Listener {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		l, err := transport.ListenTCP(addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startShard builds a coordinator for the table's group i, opens its state
// dir, and serves it on l. The upstream link injects faults via wrap.
func startShard(t *testing.T, id int, table *shard.Table, aggAddr, stateDir string,
	l transport.Listener, wrap func(transport.Conn) transport.Conn) *shard.Coordinator {
	t.Helper()
	upstream := &edge.BatchLink{
		Shard: id,
		Dialer: &transport.Dialer{
			Dial: func() (transport.Conn, error) {
				c, err := transport.DialTCP(aggAddr)
				if err != nil {
					return nil, err
				}
				return wrap(c), nil
			},
			MaxAttempts: 20,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Seed:        int64(500 + id),
		},
		ReplyTimeout: 3 * time.Second,
		Attempts:     10,
	}
	c, err := shard.NewCoordinator(shard.Config{
		ID:       id,
		Regions:  table.Regions(id),
		K:        8,
		Deadline: 25 * time.Millisecond,
		Upstream: upstream,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(stateDir); err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)
	return c
}

// TestShardedGoldenHash runs the full 4-shard topology over real TCP — 8
// edge links reporting to their ring-assigned shard coordinators, shards
// batching each round upstream, the aggregator folding globally — through a
// fault injector that delays and duplicates frames, and kills/restarts one
// coordinator mid-run. The published ratio field must end bit-identical
// (same CRC-32C consensus_state_hash) to the lossless single-server run,
// with the restarted shard proving recovery via durable_recoveries_total.
func TestShardedGoldenHash(t *testing.T) {
	const (
		shards        = 4
		rounds        = 12
		lag           = rounds + 2 // every straggler, however late, is rewindable
		crashAfter    = 5          // aggregator round that triggers the shard kill
		roundDeadline = 60 * time.Millisecond
	)
	goldenState, goldenHash := runShardedLossless(t, rounds)

	o := obs.New()
	agg, err := cloud.NewServer(shardedFDS(t), game.NewUniformState(shardedRegions, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	agg.SetFixedLag(lag)
	agg.Instrument(o)
	// The aggregator's deadline completes rounds only some shards reported
	// into (a killed shard's batch arrives late and rewinds instead).
	agg.SetRoundDeadline(roundDeadline)
	defer agg.Close()
	aggL, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aggL.Close()
	go agg.Serve(aggL)

	fault := transport.NewFault(transport.FaultConfig{
		Seed:     23,
		DupProb:  0.25,
		MinDelay: time.Millisecond,
		MaxDelay: 40 * time.Millisecond,
	})

	ring, err := shard.NewRing(shard.Names(shards))
	if err != nil {
		t.Fatal(err)
	}
	table, err := shard.BuildTable(ring, shardedRegions)
	if err != nil {
		t.Fatal(err)
	}

	coords := make([]*shard.Coordinator, shards)
	listeners := make([]transport.Listener, shards)
	addrs := make([]string, shards)
	dirs := make([]string, shards)
	for i := 0; i < shards; i++ {
		l, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr()
		dirs[i] = t.TempDir()
		coords[i] = startShard(t, i, table, aggL.Addr(), dirs[i], l, fault.WrapConn)
	}
	defer func() {
		for _, c := range coords {
			c.Close()
		}
	}()

	// 8 edge links, each reporting its scripted censuses to the shard the
	// ring assigned its region, through the same fault injector.
	errs := make([]error, shardedRegions)
	var wg sync.WaitGroup
	for i := 0; i < shardedRegions; i++ {
		owner, err := table.Owner(i)
		if err != nil {
			t.Fatal(err)
		}
		addr := addrs[owner]
		link := &edge.CloudLink{
			Edge: i,
			Dialer: &transport.Dialer{
				Dial: func() (transport.Conn, error) {
					c, err := transport.DialTCP(addr)
					if err != nil {
						return nil, err
					}
					return fault.WrapConn(c), nil
				},
				MaxAttempts: 30,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(1000 + i),
			},
			ReplyTimeout: 3 * time.Second,
			Attempts:     20,
		}
		defer link.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if _, err := link.Report(round, fixedLagCounts(i, round)); err != nil {
					errs[i] = fmt.Errorf("region %d round %d: %w", i, round, err)
					return
				}
			}
		}(i)
	}

	// Kill one coordinator once the aggregator passes crashAfter, then
	// restart it on the same address from its state directory. Its edges
	// redial through the gap; its recovered watermark keeps re-submitted
	// censuses on the late path.
	const victim = 2
	crashDeadline := time.Now().Add(10 * time.Second)
	for agg.Latest() < crashAfter && time.Now().Before(crashDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if agg.Latest() < crashAfter {
		t.Fatalf("aggregator stalled before round %d (latest %d)", crashAfter, agg.Latest())
	}
	coords[victim].Close()
	listeners[victim].Close()
	listeners[victim] = listenTCPRetry(t, addrs[victim])
	coords[victim] = startShard(t, victim, table, aggL.Addr(), dirs[victim], listeners[victim], fault.WrapConn)
	if n := metricValue(t, coords[victim].Registry(), "durable_recoveries_total"); n < 1 {
		t.Errorf("restarted shard durable_recoveries_total = %v, want >= 1", n)
	}

	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Delayed duplicates and late shard forwards may still be in flight; the
	// run has settled once the fold matches the golden hash.
	deadline := time.Now().Add(10 * time.Second)
	for agg.StateHash() != goldenHash && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := agg.StateHash(); got != goldenHash {
		t.Fatalf("sharded state hash %08x, want single-server golden %08x", got, goldenHash)
	}
	if !reflect.DeepEqual(agg.State(), goldenState) {
		t.Fatalf("sharded ratio field differs from lossless run:\n got %+v\nwant %+v", agg.State(), goldenState)
	}

	snap := o.Registry().Snapshot()
	if rewinds, _ := counterValue(snap, "consensus_rewinds_total"); rewinds < 1 {
		t.Errorf("consensus_rewinds_total = %v, want >= 1 (no degraded round ever healed)", rewinds)
	}
	if beyond, _ := counterValue(snap, "consensus_censuses_beyond_lag_total"); beyond != 0 {
		t.Errorf("consensus_censuses_beyond_lag_total = %v, want 0 (lag window must cover the crash gap)", beyond)
	}
}

// metricValue reads one series out of a registry snapshot.
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
