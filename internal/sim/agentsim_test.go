package sim

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// TestEquilibriumFromValidation covers the continuation helper's input
// checks.
func TestEquilibriumFromValidation(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	start, err := w.EquilibriumAt(0.5, MacroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.EquilibriumFrom(start, 1.5, 0.1, MacroOptions{}); err == nil {
		t.Error("ratio out of range must error")
	}
	if _, err := w.EquilibriumFrom(start, 0.8, 0, MacroOptions{}); err == nil {
		t.Error("zero lambda must error")
	}
	if _, err := w.EquilibriumFrom(start, 0.8, 1.5, MacroOptions{}); err == nil {
		t.Error("lambda > 1 must error")
	}
	// Continuation to the current ratio is a no-op plus equilibration.
	eq, err := w.EquilibriumFrom(start, 0.5, 0.1, MacroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eq.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAgentSimWithEdgePerception: enabling road-side perception strictly
// increases delivered items for the same seed and budget.
func TestRunAgentSimWithEdgePerception(t *testing.T) {
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
	field, err := policy.BandField(target.P, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	run := func(edgeShare sensor.Mask) int {
		res, err := w.RunAgentSim(AgentSimConfig{
			VehiclesPerRegion: 25,
			Rounds:            25,
			Field:             field,
			Seed:              11,
			X0:                0.5,
			InitialShares:     start.P,
			EdgeShare:         edgeShare,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalDeliveredItems
	}
	without := run(0)
	with := run(sensor.MaskOf(sensor.Radar, sensor.LiDAR))
	if with <= without {
		t.Errorf("edge perception should add deliveries: %d with vs %d without", with, without)
	}
}

// TestRunAgentSimDeterministicSeed: identical configs yield identical
// decision traces despite the concurrent runtime (all randomness is seeded
// and the protocol is round-synchronized).
func TestRunAgentSimDeterministicSeed(t *testing.T) {
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
	field, err := policy.BandField(target.P, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AgentSimConfig{
		VehiclesPerRegion: 20,
		Rounds:            10,
		Field:             field,
		Seed:              5,
		X0:                0.5,
		InitialShares:     start.P,
	}
	a, err := w.RunAgentSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.RunAgentSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SharesTrace) != len(b.SharesTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.SharesTrace), len(b.SharesTrace))
	}
	for tIdx := range a.SharesTrace {
		for i := range a.SharesTrace[tIdx] {
			for k := range a.SharesTrace[tIdx][i] {
				if a.SharesTrace[tIdx][i][k] != b.SharesTrace[tIdx][i][k] {
					t.Fatalf("round %d region %d decision %d: %f vs %f",
						tIdx, i, k+1, a.SharesTrace[tIdx][i][k], b.SharesTrace[tIdx][i][k])
				}
			}
		}
	}
	for tIdx := range a.RatioTrace {
		for i := range a.RatioTrace[tIdx] {
			if a.RatioTrace[tIdx][i] != b.RatioTrace[tIdx][i] {
				t.Fatalf("round %d region %d ratio: %v vs %v", tIdx, i, a.RatioTrace[tIdx][i], b.RatioTrace[tIdx][i])
			}
		}
	}
	if a.TotalDeliveredItems != b.TotalDeliveredItems || a.TotalReceivedUtility != b.TotalReceivedUtility ||
		a.TotalSharedCost != b.TotalSharedCost {
		t.Errorf("welfare differs: items %d/%d, utility %v/%v, cost %v/%v",
			a.TotalDeliveredItems, b.TotalDeliveredItems, a.TotalReceivedUtility, b.TotalReceivedUtility,
			a.TotalSharedCost, b.TotalSharedCost)
	}
}

// TestRunAgentSimWithFaults: the packaged agent simulation survives a lossy
// transport when configured with a FaultConfig (drops, delays, reconnecting
// clients) and still completes its rounds, every message crossing as a wire
// frame.
func TestRunAgentSimWithFaults(t *testing.T) {
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
	field, err := policy.BandField(target.P, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunAgentSim(AgentSimConfig{
		VehiclesPerRegion: 10,
		Rounds:            5,
		Field:             field,
		Seed:              11,
		X0:                0.5,
		InitialShares:     start.P,
		RoundTimeout:      300 * time.Millisecond,
		Fault: &transport.FaultConfig{
			DropProb: 0.05,
			MinDelay: time.Millisecond,
			MaxDelay: 5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Errorf("completed %d rounds, want 5", res.Rounds)
	}
}
