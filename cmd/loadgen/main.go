// Command loadgen drives the sharded consensus tier at fleet scale: it
// simulates -edges region servers, each aggregating -vehicles-per-edge
// simulated vehicles' decisions into a census per round, and reports them
// over real binary/TCP with connection multiplexing — -conns-per-shard
// worker connections per shard, each batching its slice of the shard's
// region group into one CensusBatch frame per round.
//
//	# self-contained: spawns an in-process aggregator + 4 shards on
//	# loopback TCP and drives 100k vehicles through them
//	loadgen -edges 1000 -vehicles-per-edge 100 -shards 4 -rounds 20
//
//	# against an externally started tier (cpnode -role aggregator/shard):
//	loadgen -spawn=false -shard-addrs 127.0.0.1:7200,127.0.0.1:7201,... \
//	        -edges 64 -vehicles-per-edge 32 -rounds 40
//
// It publishes loadgen_rounds_per_sec, loadgen_round_latency_seconds (and
// its p99) plus loadgen_vehicles through the obs registry (-metrics).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/transport"
)

func main() {
	var (
		edges      = flag.Int("edges", 1000, "simulated edge servers (= consensus regions)")
		vehPerEdge = flag.Int("vehicles-per-edge", 100, "simulated vehicles aggregated into each edge's census")
		rounds     = flag.Int("rounds", 20, "consensus rounds to drive")
		shards     = flag.Int("shards", 4, "shard coordinators in the tier")
		connsPer   = flag.Int("conns-per-shard", 8, "worker connections multiplexing each shard's region group")
		spawn      = flag.Bool("spawn", true, "spawn the aggregator + shard tier in-process on loopback TCP")
		aggAddr    = flag.String("aggregator", "", "external aggregator address (-spawn=false)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated external shard addresses in ring order (-spawn=false)")
		deadline   = flag.Duration("shard-deadline", 5*time.Second, "spawned shards: degraded-forward deadline")
		aggDead    = flag.Duration("round-deadline", 10*time.Second, "spawned aggregator: barrier deadline")
		seed       = flag.Int64("seed", 1, "census sampling seed")
		metricsAd  = flag.String("metrics", "", "serve /metrics on this address during the run (empty = off)")
	)
	flag.Parse()
	if err := run(*edges, *vehPerEdge, *rounds, *shards, *connsPer, *spawn,
		*aggAddr, *shardAddrs, *deadline, *aggDead, *seed, *metricsAd); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

// spawnTier starts an aggregator and the shard coordinators on loopback
// TCP through the shared scenario.NodeConfig constructors, returning the
// shard addresses in ring order and a shutdown func. The cycle region graph
// keeps the inter-region coupling sparse (the O(M^2) dense demo graph is
// unusable at 1000 regions) and the P1 band field skips the mean-field
// probe, whose cost also scales with the region count.
func spawnTier(m, nShards int, shardDeadline, aggDeadline time.Duration) ([]string, func(), error) {
	field, err := scenario.P1BandField(m, lattice.NewPaper().K(), 0.7, 0.1)
	if err != nil {
		return nil, nil, err
	}
	nc := scenario.Defaults(scenario.RoleAggregator)
	nc.Regions = m
	nc.Beta = 3 // region mass
	nc.Graph = scenario.CycleGraph(m)
	nc.X0 = 0.5
	nc.FixedLag = 8
	nc.RoundDeadline = aggDeadline
	nc.Field = field
	agg, _, err := nc.NewCloud()
	if err != nil {
		return nil, nil, err
	}
	aggL, err := nc.Listener() // 127.0.0.1:0
	if err != nil {
		agg.Close()
		return nil, nil, err
	}
	go agg.Serve(aggL)

	var coords []*shard.Coordinator
	var links []*edge.BatchLink
	addrs := make([]string, nShards)
	shutdown := func() {
		for _, c := range coords {
			c.Close()
		}
		for _, l := range links {
			l.Close()
		}
		aggL.Close()
		agg.Close()
	}
	aggAddr := aggL.Addr()
	for i := 0; i < nShards; i++ {
		snc := scenario.Defaults(scenario.RoleShard)
		snc.Seed = int64(100 + i)
		snc.RetryMax = 10
		snc.Shards = nShards
		snc.ShardID = i
		snc.Regions = m
		snc.ShardDeadline = shardDeadline
		snc.Logf = log.Printf
		coord, upstream, err := snc.NewShard(snc.DialFunc(aggAddr))
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		l, err := snc.Listener() // 127.0.0.1:0
		if err != nil {
			coord.Close()
			upstream.Close()
			shutdown()
			return nil, nil, err
		}
		go coord.Serve(l)
		coords = append(coords, coord)
		links = append(links, upstream)
		addrs[i] = l.Addr()
	}
	return addrs, shutdown, nil
}

// worker is one multiplexed connection's load: a slice of one shard's
// region group, batched into a single frame per round.
type worker struct {
	shard   int
	regions []int
	link    *edge.BatchLink
	rng     *rand.Rand
	// latencies[r] is the wall time round r took on this worker's slice.
	latencies []time.Duration
}

func run(edges, vehPerEdge, rounds, nShards, connsPer int, spawn bool,
	aggAddr, shardAddrs string, shardDeadline, aggDeadline time.Duration,
	seed int64, metricsAddr string) error {
	if edges <= 0 || vehPerEdge <= 0 || rounds <= 0 || nShards <= 0 || connsPer <= 0 {
		return fmt.Errorf("edges, vehicles-per-edge, rounds, shards, conns-per-shard must all be positive")
	}
	ring, err := shard.NewRing(shard.Names(nShards))
	if err != nil {
		return err
	}
	table, err := shard.BuildTable(ring, edges)
	if err != nil {
		return err
	}

	var addrs []string
	if spawn {
		var shutdown func()
		addrs, shutdown, err = spawnTier(edges, nShards, shardDeadline, aggDeadline)
		if err != nil {
			return err
		}
		defer shutdown()
		if aggAddr != "" || shardAddrs != "" {
			return fmt.Errorf("-aggregator/-shard-addrs are for -spawn=false runs")
		}
	} else {
		addrs = strings.Split(shardAddrs, ",")
		if len(addrs) != nShards {
			return fmt.Errorf("-shard-addrs lists %d addresses, want one per shard (%d)", len(addrs), nShards)
		}
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
	}

	o := obs.New()
	vehicles := edges * vehPerEdge
	o.Gauge("loadgen_vehicles", "simulated vehicles across all edges").Set(float64(vehicles))
	latHist := o.Histogram("loadgen_round_latency_seconds", "per-worker census-batch round latency", nil)
	rpsGauge := o.Gauge("loadgen_rounds_per_sec", "consensus rounds completed per second over the run")
	p99Gauge := o.Gauge("loadgen_round_latency_p99_seconds", "p99 of per-worker round latency")
	if metricsAddr != "" {
		msrv, err := obs.Serve(metricsAddr, o)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("loadgen: metrics on http://%s/metrics\n", msrv.Addr())
	}

	// Partition each shard's region group across its worker connections,
	// dialed the way an edge dials its shard.
	edgeNC := scenario.Defaults(scenario.RoleEdge)
	var workers []*worker
	for s := 0; s < nShards; s++ {
		group := table.Regions(s)
		per := connsPer
		if per > len(group) {
			per = len(group)
		}
		for w := 0; w < per; w++ {
			slice := make([]int, 0, len(group)/per+1)
			for idx := w; idx < len(group); idx += per {
				slice = append(slice, group[idx])
			}
			workers = append(workers, &worker{
				shard:   s,
				regions: slice,
				rng:     rand.New(rand.NewSource(seed + int64(len(workers)))),
				link: &edge.BatchLink{
					Shard: s,
					Dialer: &transport.Dialer{
						Dial:        edgeNC.DialFunc(addrs[s]),
						MaxAttempts: 30,
						BaseDelay:   5 * time.Millisecond,
						MaxDelay:    500 * time.Millisecond,
						Seed:        seed + int64(len(workers)),
					},
					ReplyTimeout: 60 * time.Second,
					Attempts:     20,
					Obs:          o,
				},
				latencies: make([]time.Duration, 0, rounds),
			})
		}
	}
	defer func() {
		for _, w := range workers {
			w.link.Close()
		}
	}()
	fmt.Printf("loadgen: %d vehicles (%d edges x %d), %d shards, %d worker conns, %d rounds\n",
		vehicles, edges, vehPerEdge, nShards, len(workers), rounds)

	k := lattice.NewPaper().K()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for wi, w := range workers {
		wi, w := wi, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			censuses := make([]transport.Census, len(w.regions))
			for round := 0; round < rounds; round++ {
				for i, region := range w.regions {
					counts := make([]int, k)
					for v := 0; v < vehPerEdge; v++ {
						counts[w.rng.Intn(k)]++
					}
					censuses[i] = transport.Census{Edge: region, Round: round, Counts: counts}
				}
				t0 := time.Now()
				if _, err := w.link.Report(round, censuses); err != nil {
					errs[wi] = fmt.Errorf("shard %d worker round %d: %w", w.shard, round, err)
					return
				}
				lat := time.Since(t0)
				w.latencies = append(w.latencies, lat)
				latHist.Observe(lat.Seconds())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var all []float64
	for _, w := range workers {
		for _, l := range w.latencies {
			all = append(all, l.Seconds())
		}
	}
	sort.Float64s(all)
	p50 := metrics.Quantile(all, 0.50)
	p99 := metrics.Quantile(all, 0.99)
	rps := float64(rounds) / elapsed.Seconds()
	censusesPerSec := float64(rounds*edges) / elapsed.Seconds()
	rpsGauge.Set(rps)
	p99Gauge.Set(p99)
	fmt.Printf("loadgen: %d rounds in %v: %.2f rounds/s, %.0f censuses/s, round latency p50 %.1fms p99 %.1fms\n",
		rounds, elapsed.Round(time.Millisecond), rps, censusesPerSec, p50*1e3, p99*1e3)
	return nil
}
