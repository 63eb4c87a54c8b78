package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// stageCounter reads one stage-labeled worldbuild_* counter from a registry
// snapshot; a stage never touched has no series and reads 0.
func stageCounter(snap []obs.Point, name, stage string) int {
	for _, p := range snap {
		if p.Name != name {
			continue
		}
		for _, l := range p.Labels {
			if l.Name == "stage" && l.Value == stage {
				return int(p.Value)
			}
		}
	}
	return 0
}

// testWorlds builds a pair of very small worlds for experiment tests.
func testWorlds(t *testing.T) (*sim.World, *sim.World) {
	t.Helper()
	mk := func(src sim.CoeffSource) *sim.World {
		cfg := sim.DefaultWorldConfig()
		cfg.Net.Rows, cfg.Net.Cols = 8, 9
		cfg.Trace.Taxis, cfg.Trace.Transit = 25, 15
		cfg.Trace.Duration = 2 * time.Hour
		cfg.Regions = 4
		cfg.EdgeServers = 16
		cfg.Source = src
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return mk(sim.CoeffBC), mk(sim.CoeffTD)
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" {
		t.Error("scale strings wrong")
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale string")
	}
}

func TestWorldConfigByScale(t *testing.T) {
	small := WorldConfig(ScaleSmall, sim.CoeffBC)
	full := WorldConfig(ScaleFull, sim.CoeffTD)
	if small.Source != sim.CoeffBC || full.Source != sim.CoeffTD {
		t.Error("source not applied")
	}
	if full.Regions <= small.Regions {
		t.Error("full scale should have more regions")
	}
}

func TestTable3(t *testing.T) {
	res, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sums[sensor.Camera] != 7 || res.Sums[sensor.LiDAR] != 6 || res.Sums[sensor.Radar] != 7 {
		t.Errorf("sums = %v", res.Sums)
	}
	// 1 header + 11 factors + 1 sum row.
	if len(res.Rows) != 13 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lane detection") {
		t.Error("render missing factor names")
	}
}

func TestTable2ExactReproduction(t *testing.T) {
	res := Table2()
	if res.MaxUtilityErr != 0 || res.MaxCostErr != 0 {
		t.Errorf("Table II not exact: utility err %g, cost err %g", res.MaxUtilityErr, res.MaxCostErr)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"P1", "P8", "{camera,lidar,radar}", "1.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig7(t *testing.T) {
	bc, _ := testWorlds(t)
	res, err := Fig7(bc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vehicles != 40 {
		t.Errorf("vehicles = %d", res.Vehicles)
	}
	if res.Fixes == 0 {
		t.Error("no fixes")
	}
	if !res.BCArterialTop {
		t.Error("BC should concentrate on arterials")
	}
	if !res.TDArterialTop {
		t.Error("TD should concentrate on arterials")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "edge servers") {
		t.Error("render incomplete")
	}
}

func TestFig8(t *testing.T) {
	bc, td := testWorlds(t)
	res, err := Fig8(bc, td)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != 4 {
		t.Errorf("regions = %d", res.Regions)
	}
	if len(res.BC.Stats) != 4 || len(res.TD.Stats) != 4 {
		t.Error("per-region stats missing")
	}
	if res.BC.Edges == 0 {
		t.Error("region graph has no edges")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "within-region std") {
		t.Error("render incomplete")
	}
}

func TestFig9SmallSweep(t *testing.T) {
	bc, td := testWorlds(t)
	cfg := Fig9Config{
		EpsValues: []float64{0.02, 0.05},
		Opts:      sim.MacroOptions{MaxRounds: 1500},
	}
	res, err := Fig9(bc, td, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != 2 {
		t.Fatalf("sources = %d", len(res.Sources))
	}
	for _, src := range res.Sources {
		if len(src.Points) != 2 {
			t.Fatalf("%s points = %d", src.Name, len(src.Points))
		}
		for _, p := range src.Points {
			if !p.Converged {
				t.Errorf("%s eps=%.2f did not converge (%d rounds)", src.Name, p.Eps, p.FDSRounds)
			}
			if p.Converged && p.LowerBound > p.FDSRounds {
				t.Errorf("%s eps=%.2f bound %d > achieved %d", src.Name, p.Eps, p.LowerBound, p.FDSRounds)
			}
		}
	}
	if !res.MonotoneNonIncreasing {
		t.Error("convergence time should not increase with eps")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig10(t *testing.T) {
	bc, _ := testWorlds(t)
	res, err := Fig10(bc, Fig10Config{Opts: sim.MacroOptions{MaxRounds: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LowSharingWinsAtLowX {
		t.Errorf("x=0.2 final = %v; want P7+P8 majority", res.FixedLow.Final)
	}
	if !res.FullSharingWinsAtHighX {
		t.Errorf("x=1.0 final = %v; want P1+P5 majority", res.FixedHigh.Final)
	}
	if !res.FDSConverged {
		t.Error("FDS run should converge to the desired field")
	}
	if res.FixedLow.Converged || res.FixedHigh.Converged {
		t.Error("fixed baselines should not reach the desired field")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FDS") {
		t.Error("render incomplete")
	}
}

func TestLambdaAblation(t *testing.T) {
	bc, _ := testWorlds(t)
	res, err := LambdaAblation(bc, []float64{0.05, 0.2}, sim.MacroOptions{MaxRounds: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Converged {
			t.Errorf("lambda %.2f did not converge", p.Lambda)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestMicroMacro(t *testing.T) {
	bc, _ := testWorlds(t)
	res, err := MicroMacro(bc, []int{12, 48}, 2, sim.MacroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Rounds == 0 {
			t.Error("agent sim executed no rounds")
		}
		if p.Gap.N != 2 {
			t.Errorf("%d vehicles: gap over %d seeds, want 2", p.Vehicles, p.Gap.N)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWorldsSharedSubstrate(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping default-scale world build in -short mode")
	}
	b := sim.NewWorldBuilder()
	o := obs.New()
	b.Instrument(o)
	bc, td, err := WorldsWith(b, ScaleSmall, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Net != td.Net {
		t.Error("BC and TD worlds must share the same network artifact")
	}
	if bc.Trace != td.Trace {
		t.Error("BC and TD worlds must share the matched-trace artifact")
	}
	// The whole point of building the pair through one cache: the expensive
	// shared stages run exactly once, and the TD build hits them.
	snap := o.Registry().Snapshot()
	for _, stage := range []string{"network", "trace", "match"} {
		if got := stageCounter(snap, "worldbuild_stage_executions_total", stage); got != 1 {
			t.Errorf("stage %s executed %d times for the BC+TD pair, want 1", stage, got)
		}
	}
	// The TD build must be served from cache for the shared substrate. (It
	// hits network and match directly; trace records no hit because its only
	// consumer, match, never misses.)
	for _, stage := range []string{"network", "match"} {
		if stageCounter(snap, "worldbuild_stage_hits_total", stage) == 0 {
			t.Errorf("stage %s recorded no cache hits for the TD build", stage)
		}
	}
	// density is demanded only by the TD branch, so it also runs once.
	if got := stageCounter(snap, "worldbuild_stage_executions_total", "density"); got != 1 {
		t.Errorf("density executed %d times, want 1", got)
	}
}
