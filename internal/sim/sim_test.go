package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/policy"
)

func tinyWorldConfig() WorldConfig {
	cfg := DefaultWorldConfig()
	cfg.Net.Rows, cfg.Net.Cols = 8, 9
	cfg.Trace.Taxis, cfg.Trace.Transit = 20, 10
	cfg.Trace.Duration = 90 * time.Minute
	cfg.Regions = 4
	cfg.EdgeServers = 9
	return cfg
}

func buildTinyWorld(t *testing.T, src CoeffSource) *World {
	t.Helper()
	cfg := tinyWorldConfig()
	cfg.Source = src
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorldBC(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	if w.Net.NumSegments() == 0 {
		t.Fatal("no segments")
	}
	if len(w.Weights) != w.Net.NumSegments() {
		t.Fatal("weights length mismatch")
	}
	if w.Assignment.M != 4 {
		t.Fatalf("M = %d", w.Assignment.M)
	}
	if err := w.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Model.M() != 4 || w.Model.K() != 8 {
		t.Fatalf("model %dx%d", w.Model.M(), w.Model.K())
	}
	// Beta normalized to mean 4.
	mean := 0.0
	for _, b := range w.Beta {
		mean += b
	}
	mean /= float64(len(w.Beta))
	if math.Abs(mean-4.0) > 1e-9 {
		t.Errorf("beta mean = %f, want 4", mean)
	}
	if w.Voronoi.NumCells() < tinyWorldConfig().EdgeServers {
		t.Errorf("voronoi cells = %d", w.Voronoi.NumCells())
	}
	if len(w.RegionStats) != 4 {
		t.Errorf("region stats = %d entries", len(w.RegionStats))
	}
}

func TestBuildWorldTD(t *testing.T) {
	w := buildTinyWorld(t, CoeffTD)
	nonzero := 0
	for _, v := range w.Weights {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("TD weights all zero; trace produced no density")
	}
	if w.AvgWithinStd < 0 {
		t.Error("negative within-region std")
	}
}

func TestBuildWorldValidation(t *testing.T) {
	cfg := tinyWorldConfig()
	cfg.Regions = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("zero regions must error")
	}
	cfg = tinyWorldConfig()
	cfg.Source = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("unknown source must error")
	}
	cfg = tinyWorldConfig()
	cfg.EdgeServers = 0
	if _, err := BuildWorld(cfg); err == nil {
		t.Error("zero edge servers must error")
	}
}

// TestGreedyClusteringOption: the greedy variant builds a valid world and
// never increases the within-region coefficient dispersion relative to the
// round-robin original.
func TestGreedyClusteringOption(t *testing.T) {
	cfg := tinyWorldConfig()
	base, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GreedyClustering = true
	greedy, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if greedy.AvgWithinStd > base.AvgWithinStd*1.01 {
		t.Errorf("greedy clustering std %.6f should not exceed round-robin %.6f",
			greedy.AvgWithinStd, base.AvgWithinStd)
	}
}

func TestCoeffSourceString(t *testing.T) {
	if CoeffBC.String() != "BC" || CoeffTD.String() != "TD" {
		t.Error("source strings wrong")
	}
	if CoeffSource(9).String() == "" {
		t.Error("unknown source string empty")
	}
}

func TestGridDim(t *testing.T) {
	tests := []struct {
		n, rows, cols int
	}{
		{100, 10, 10},
		{9, 3, 3},
		{10, 4, 3},
		{1, 1, 1},
	}
	for _, tt := range tests {
		r, c := gridDim(tt.n)
		if r != tt.rows || c != tt.cols {
			t.Errorf("gridDim(%d) = %d,%d want %d,%d", tt.n, r, c, tt.rows, tt.cols)
		}
		if r*c < tt.n {
			t.Errorf("gridDim(%d) too small", tt.n)
		}
	}
}

// TestEquilibriumAndFieldFromState: an equilibrium satisfies the field
// banded around its own shares.
func TestEquilibriumAndFieldFromState(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	eq, err := w.EquilibriumAt(0.8, MacroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eq.Validate(); err != nil {
		t.Fatal(err)
	}
	field, err := policy.BandField(eq.P, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := field.Converged(eq); !ok {
		t.Error("state must satisfy its own field")
	}
	if _, err := policy.BandField(nil, 0.03); err == nil {
		t.Error("empty state must error")
	}
}

// TestRunFDSEndToEnd: the macroscopic closed loop over a real multi-region
// world — build the target from the x=0.85 equilibrium, start at the
// x=0.15 equilibrium, and let FDS steer.
func TestRunFDSEndToEnd(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	opts := MacroOptions{MaxRounds: 800}

	start, err := w.EquilibriumAt(0.15, opts)
	if err != nil {
		t.Fatal(err)
	}
	target, err := w.EquilibriumFrom(start, 0.85, 0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	field, err := policy.BandField(target.P, 0.04)
	if err != nil {
		t.Fatal(err)
	}

	res, err := w.RunFDS(start, field, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shape.Converged {
		t.Fatalf("FDS failed to converge: shortfall %f after %d rounds",
			res.Shape.Shortfall, res.Shape.Rounds)
	}
	if res.LowerBound > res.Shape.Rounds {
		t.Errorf("lower bound %d exceeds achieved %d", res.LowerBound, res.Shape.Rounds)
	}

	// Fixed-ratio baseline from the same start does not converge.
	start2, err := w.EquilibriumAt(0.15, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := w.RunFixed(start2, field, MacroOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if base.Converged {
		t.Error("fixed low ratio should not reach the high-sharing field")
	}
}

// TestRunAgentSimMatchesMacro: the distributed agent-based system steers to
// the same field the macroscopic model does, and its final distribution is
// close to the cloud's mean-field prediction.
func TestRunAgentSimMatchesMacro(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	opts := MacroOptions{}
	start, err := w.EquilibriumAt(0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	target, err := w.EquilibriumFrom(start, 0.85, 0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Finite-population noise needs a loose tolerance.
	field, err := policy.BandField(target.P, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunAgentSim(AgentSimConfig{
		VehiclesPerRegion: 60,
		Rounds:            120,
		Field:             field,
		Seed:              7,
		X0:                0.5,
		InitialShares:     start.P,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("simulation ran zero rounds")
	}
	if !res.Converged {
		final := res.SharesTrace[len(res.SharesTrace)-1]
		t.Fatalf("agent sim did not converge in %d rounds; final region-0 shares %v (target %v)",
			res.Rounds, final[0], target.P[0])
	}
	if res.TotalDeliveredItems == 0 {
		t.Error("no data was ever delivered — the data plane did not run")
	}
	// Ratios stayed in range and respected Lambda.
	for tIdx := 1; tIdx < len(res.RatioTrace); tIdx++ {
		for i := range res.RatioTrace[tIdx] {
			dx := math.Abs(res.RatioTrace[tIdx][i] - res.RatioTrace[tIdx-1][i])
			if dx > 0.1+1e-9 {
				t.Fatalf("round %d region %d ratio jumped %f", tIdx, i, dx)
			}
		}
	}
}

func TestRunAgentSimValidation(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	m, k := w.Model.M(), w.Model.K()
	field := policy.NewFreeField(m, k)
	shares := func(rows, cols int) [][]float64 {
		out := make([][]float64, rows)
		for i := range out {
			out[i] = make([]float64, cols)
			out[i][0] = 1
		}
		return out
	}
	for _, tc := range []struct {
		name string
		cfg  AgentSimConfig
	}{
		{"missing field", AgentSimConfig{}},
		{"fewer share rows than regions", AgentSimConfig{Field: field, InitialShares: shares(m-1, k)}},
		{"share row shorter than the lattice", AgentSimConfig{Field: field, InitialShares: shares(m, k-1)}},
	} {
		if _, err := w.RunAgentSim(tc.cfg); err == nil {
			t.Errorf("%s must error", tc.name)
		}
	}
}
