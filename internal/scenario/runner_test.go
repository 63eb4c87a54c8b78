package scenario

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func loadSpec(t *testing.T, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunBaselineSpec: the checked-in baseline executes end to end and its
// verdict passes — the smallest full-stack exercise of the runner.
func TestRunBaselineSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "baseline.json")
	v, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Errorf("baseline verdict failed: %+v", v.Checks)
	}
	if !v.Converged {
		t.Error("baseline did not converge")
	}
	if len(v.ConsensusStateHash) != 8 || v.ConsensusStateHash == "00000000" {
		t.Errorf("consensus_state_hash = %q, want a CRC-32C witness", v.ConsensusStateHash)
	}
	if v.Welfare.DeliveredItems == 0 {
		t.Error("no perception items delivered")
	}
}

// TestRunBaselineDeterministic: the same spec and seed fold to the same
// hash — the reproducibility contract behind hash-equality verdicts.
func TestRunBaselineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "baseline.json")
	a, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(loadSpec(t, "baseline.json"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConsensusStateHash != b.ConsensusStateHash {
		t.Errorf("hash %s != %s across identical runs", a.ConsensusStateHash, b.ConsensusStateHash)
	}
}

// TestRunLossyHashEqualsLossless: under duplication and delay (no drops, no
// deadline) the fold is bit-identical to the lossless twin — the headline
// rewind/dedup property the lossy-network spec pins in CI.
func TestRunLossyHashEqualsLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "lossy-network.json")
	if !spec.Verdict.RequireHashEqual {
		t.Fatal("lossy-network.json no longer requires hash equality")
	}
	v, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Errorf("lossy-network verdict failed: %+v", v.Checks)
	}
	if v.Baseline == nil || !v.Baseline.HashEqual {
		t.Errorf("faulted hash %s != lossless twin %v", v.ConsensusStateHash, v.Baseline)
	}
	if v.FaultsInjected == 0 {
		t.Error("no faults injected — the lossy run is vacuous")
	}
}

// TestRunSeedOverride: RunOptions.Seed wins over the spec seed and is
// reported in the verdict.
func TestRunSeedOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "baseline.json")
	seed := spec.Seed + 1000
	v, err := Run(spec, RunOptions{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if v.Seed != seed {
		t.Errorf("verdict seed = %d, want override %d", v.Seed, seed)
	}
}

// TestKillWithoutRestartFinishes: a spec whose edge dies for good runs its
// rounds and returns: the dead edge's vehicles, still redialing it, stop
// when the run stops them.
func TestKillWithoutRestartFinishes(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"version": 1, "name": "kill-for-good", "seed": 3, "rounds": 12,
		"topology": {"network": "inproc", "regions": 2},
		"cloud": {"x0": 0.3, "target_x": 0.85, "eps": 0.05, "round_deadline": "150ms"},
		"cohorts": [{"name": "taxis", "kind": "taxi", "per_region": 4}],
		"events": [{"round": 4, "action": "kill", "target": "edge:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(spec, RunOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not return after its last round")
	}
}
