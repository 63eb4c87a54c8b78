// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index), plus micro-benchmarks of the
// substrates the experiments lean on. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN / BenchmarkFigN measures the end-to-end cost of the
// corresponding reproduction; the b.Run sub-benchmarks isolate the hot
// pieces.
package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/optimize"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"runtime"
)

// benchWorlds lazily builds the pair of benchmark worlds exactly once across
// all benchmarks in the binary; both are built through one WorldBuilder so
// they share the network/trace/matching artifacts.
var benchWorlds struct {
	once   sync.Once
	bc, td *sim.World
	err    error
}

func benchWorldConfig(src sim.CoeffSource) sim.WorldConfig {
	cfg := sim.DefaultWorldConfig()
	cfg.Net.Rows, cfg.Net.Cols = 12, 14
	cfg.Trace.Taxis, cfg.Trace.Transit = 40, 25
	cfg.Trace.Duration = 3 * time.Hour
	cfg.Regions = 6
	cfg.Source = src
	return cfg
}

func getBenchWorlds(b *testing.B) (*sim.World, *sim.World) {
	b.Helper()
	benchWorlds.once.Do(func() {
		builder := sim.NewWorldBuilder()
		benchWorlds.bc, benchWorlds.err = builder.Build(benchWorldConfig(sim.CoeffBC))
		if benchWorlds.err != nil {
			return
		}
		benchWorlds.td, benchWorlds.err = builder.Build(benchWorldConfig(sim.CoeffTD))
	})
	if benchWorlds.err != nil {
		b.Fatal(benchWorlds.err)
	}
	return benchWorlds.bc, benchWorlds.td
}

// BenchmarkTable2PayoffDerivation regenerates Table II (decision utilities
// and privacy costs) from the Table III capability matrix.
func BenchmarkTable2PayoffDerivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2()
		if res.MaxUtilityErr != 0 {
			b.Fatal("Table II no longer exact")
		}
	}
}

// BenchmarkTable3Capability regenerates the Table III capability matrix.
func BenchmarkTable3Capability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7DatasetPrep regenerates the Fig. 7 dataset overview (edge
// server cells, BC and TD heat-map summaries) on a prebuilt world.
func BenchmarkFig7DatasetPrep(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(bc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Clustering regenerates the Fig. 8 clustering analysis
// (Algorithm 1 stats, region graphs, time-resolved TD dispersion).
func BenchmarkFig8Clustering(b *testing.B) {
	bc, td := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(bc, td); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9FDSConvergence regenerates the Fig. 9 convergence-time sweep
// (FDS run + per-eps measurement + lower bounds) for both coefficient
// sources.
func BenchmarkFig9FDSConvergence(b *testing.B) {
	bc, td := getBenchWorlds(b)
	cfg := experiments.Fig9Config{EpsValues: []float64{0.02, 0.05}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(bc, td, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Trajectories regenerates the Fig. 10 trajectory panels
// (two fixed-ratio baselines, one FDS run, delta series).
func BenchmarkFig10Trajectories(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(bc, experiments.Fig10Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBoundFeasibility measures the subgradient solver on a
// single-region relaxed problem (Eq. 22) — the expensive exact bound.
func BenchmarkLowerBoundFeasibility(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	opts := sim.MacroOptions{}
	start, err := bc.EquilibriumAt(0.2, opts)
	if err != nil {
		b.Fatal(err)
	}
	target, err := bc.EquilibriumFrom(start, 0.8, 0.1, opts)
	if err != nil {
		b.Fatal(err)
	}
	field, err := sim.FieldFromState(target, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := policy.SubgradientLowerBound(bc.Model, field, start, 0.1, 3,
			optimize.Options{MaxIters: 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLambda measures the Lambda design-choice sweep.
func BenchmarkAblationLambda(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LambdaAblation(bc, []float64{0.05, 0.2}, sim.MacroOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroMacroAgents measures one agent-based distributed run
// (cloud + edges + vehicle clients over the in-process transport).
func BenchmarkMicroMacroAgents(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MicroMacro(bc, []int{24}, sim.MacroOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWelfareComparison measures the utility/exposure comparison
// (two fixed baselines + one FDS run + welfare evaluation).
func BenchmarkWelfareComparison(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WelfareComparison(bc, experiments.WelfareConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetaNoiseAblation measures one model-mismatch shaping run.
func BenchmarkBetaNoiseAblation(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BetaNoise(bc, []float64{0.5}, sim.MacroOptions{MaxRounds: 600}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkBuildWorld measures the full staged world-build pipeline with the
// worker pools pinned to one goroutine (seq) versus all CPUs (par). Each
// iteration uses a fresh builder so nothing is served from the artifact cache.
func BenchmarkBuildWorld(b *testing.B) {
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{"par", 0}, // 0 = runtime.NumCPU()
	} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := benchWorldConfig(sim.CoeffBC)
			cfg.Workers = bench.workers
			for i := 0; i < b.N; i++ {
				if _, err := sim.BuildWorld(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBetweenness measures travel-time Brandes (the dominant build
// stage) with one worker versus all CPUs on the benchmark network.
func BenchmarkBetweenness(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{"par", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bc.Net.TravelTimeBetweennessWorkers(bench.workers)
			}
		})
	}
}

// BenchmarkBetweennessCentrality measures hop-based Brandes on the
// benchmark network.
func BenchmarkBetweennessCentrality(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bc.Net.BetweennessCentrality()
	}
}

// BenchmarkWeightedBetweenness measures travel-time Brandes (Dijkstra).
func BenchmarkWeightedBetweenness(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bc.Net.TravelTimeBetweenness()
	}
}

// BenchmarkTraceGeneration measures the synthetic fleet generator.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols = 12, 14
	net, err := roadnet.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tcfg := trace.DefaultGenConfig()
	tcfg.Taxis, tcfg.Transit = 20, 10
	tcfg.Duration = time.Hour
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(net, tcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicatorStep measures one synchronous replicator round across
// all regions.
func BenchmarkReplicatorStep(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	d, err := game.NewDynamics(bc.Model, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := game.NewUniformState(bc.Model.M(), bc.Model.K(), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogitStep measures one smoothed-best-response round.
func BenchmarkLogitStep(b *testing.B) {
	bc, _ := getBenchWorlds(b)
	d, err := game.NewLogitDynamics(bc.Model, 0.15, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	s := game.NewUniformState(bc.Model.M(), bc.Model.K(), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDSUpdate measures one FDS control round (linearization +
// interval solving across all regions and decisions): on the benchmark
// world, and on the two graphs the round-pipeline benchmark folds over —
// the dense demo graph at the fleets' M=16 and the ring at the floods'
// M=1024 — under the load harness's P1 band, with allocations reported.
func BenchmarkFDSUpdate(b *testing.B) {
	run := func(b *testing.B, fds *policy.FDS, s *game.State) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fds.UpdateRatios(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("world", func(b *testing.B) {
		bc, _ := getBenchWorlds(b)
		opts := sim.MacroOptions{}
		start, err := bc.EquilibriumAt(0.3, opts)
		if err != nil {
			b.Fatal(err)
		}
		target, err := bc.EquilibriumFrom(start, 0.8, 0.1, opts)
		if err != nil {
			b.Fatal(err)
		}
		field, err := sim.FieldFromState(target, 0.03)
		if err != nil {
			b.Fatal(err)
		}
		fds, err := policy.NewFDS(bc.Model, field, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		run(b, fds, start.Clone())
	})
	for _, tc := range []struct {
		name  string
		graph game.Graph
	}{
		{"M=16/demo", scenario.DemoGraph(16)},
		{"M=1024/cycle", scenario.CycleGraph(1024)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := tc.graph.M()
			betas := make([]float64, m)
			for i := range betas {
				betas[i] = 3
			}
			model, err := game.NewModel(lattice.PaperPayoffs(), tc.graph, betas)
			if err != nil {
				b.Fatal(err)
			}
			field, err := scenario.P1BandField(m, model.K(), 0.7, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			fds, err := policy.NewFDS(model, field, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			s := game.NewUniformState(m, model.K(), 0.2)
			for i := range s.P {
				for k := range s.P[i] {
					s.P[i][k] = rng.Float64()
				}
				game.Normalize(s.P[i])
			}
			run(b, fds, s)
		})
	}
}

// BenchmarkPaperLattice measures lattice construction plus the Table II
// payoff derivation path used in hot loops.
func BenchmarkPaperLattice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := lattice.PaperPayoffs()
		if p.K() != 8 {
			b.Fatal("bad lattice")
		}
	}
}

// --- wire protocol benchmarks ---

// benchMessage builds one message of the given kind for codec benchmarks.
func benchMessage(b *testing.B, kind transport.Kind, body interface{}) transport.Message {
	b.Helper()
	m, err := transport.Encode(kind, body)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkEncodeCensus measures encoding a step-① census frame, reusing the destination buffer the way tcpConn.Send does. The
// bytes/frame metric is the wire size the acceptance criterion compares.
func BenchmarkEncodeCensus(b *testing.B) {
	m := benchMessage(b, transport.KindCensus,
		transport.Census{Edge: 3, Round: 117, Counts: []int{12, 40, 7, 3, 0, 9, 1, 28}})
	buf := make([]byte, 0, 512)
	frame, err := transport.Binary.AppendEncode(buf, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.Binary.AppendEncode(buf[:0], m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frame)), "bytes/frame")
}

// BenchmarkRoundTrip measures a full encode+decode cycle for the three message shapes that dominate wire traffic: the census (step ①), the
// ratio broadcast (step ②), and a vehicle upload (step ④).
func BenchmarkRoundTrip(b *testing.B) {
	items := make([]transport.Item, 4)
	for i := range items {
		items[i] = transport.Item{Owner: 7, Modality: sensor.LiDAR, Seq: i + 1}
	}
	messages := []transport.Message{
		benchMessage(b, transport.KindCensus,
			transport.Census{Edge: 3, Round: 117, Counts: []int{12, 40, 7, 3, 0, 9, 1, 28}}),
		benchMessage(b, transport.KindRatio, transport.Ratio{Round: 118, X: 0.7125}),
		benchMessage(b, transport.KindUpload,
			transport.Upload{Vehicle: 42, Round: 117, Decision: 6, Items: items}),
	}
	var total int
	buf := make([]byte, 0, 1024)
	for _, m := range messages {
		frame, err := transport.Binary.AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		total += len(frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := messages[i%len(messages)]
		frame, err := transport.Binary.AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transport.Binary.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)/float64(len(messages)), "bytes/frame")
}

// BenchmarkJournalAppend measures the durable journal's append+fsync cost
// per record under the two commit disciplines: one fsync per record (the
// default every node runs) and group commit, where concurrent appenders
// share a batched fsync. The parallel driver supplies the concurrent
// appenders group commit needs; no node of the tier has them, so none
// enables it.
func BenchmarkJournalAppend(b *testing.B) {
	record := []byte(`{"round":117,"censuses":{"3":[12,40,7,3,0,9,1,28]}}`)
	for _, bc := range []struct {
		name  string
		group int
	}{
		{"sync", 0},
		{"group8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			store, err := durable.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			if bc.group > 0 {
				store.SetGroupCommit(bc.group, time.Millisecond)
			}
			// 16 appenders regardless of GOMAXPROCS: the group discipline
			// batches whatever accumulates while an fsync is in flight, so
			// the win needs concurrent writers, not CPUs.
			b.SetParallelism(16 / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := store.Append(record); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
