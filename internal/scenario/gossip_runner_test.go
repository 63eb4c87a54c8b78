package scenario

import (
	"testing"
	"time"
)

// TestRunCloudPartitionSpec: the checked-in cloud-partition scenario — six
// regions in two gossip neighborhoods, cloud unreachable for 35% of the run
// — passes its verdict: edges kept completing local rounds during the
// partition and the healed cloud fold is bit-identical to the
// always-connected lossless twin.
func TestRunCloudPartitionSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "cloud-partition.json")
	if !spec.Verdict.RequireHashEqual {
		t.Fatal("cloud-partition.json no longer requires hash equality")
	}
	v, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Errorf("cloud-partition verdict failed: %+v", v.Checks)
	}
	if v.Baseline == nil || !v.Baseline.HashEqual {
		t.Errorf("partitioned hash %s != lossless twin %v", v.ConsensusStateHash, v.Baseline)
	}
	if v.GossipPartitionLocalRounds == 0 {
		t.Error("no local rounds during the partition — edge autonomy is vacuous")
	}
	if v.GossipEscalationFailures == 0 {
		t.Error("no escalation failures — the partition never bit the control plane")
	}
}

// TestRunLeaderKillSpec: the checked-in leader-kill scenario — the hood
// leader is killed without warning mid-partition, the ring successor
// promotes and takes over the mirrored escalation backlog, and the dead
// node restarts from its journal as a follower — passes its verdict,
// including hash equality with the always-healthy lossless twin.
func TestRunLeaderKillSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "leader-kill.json")
	if !spec.Verdict.RequireHashEqual {
		t.Fatal("leader-kill.json no longer requires hash equality")
	}
	v, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Errorf("leader-kill verdict failed: %+v", v.Checks)
	}
	if v.Baseline == nil || !v.Baseline.HashEqual {
		t.Errorf("leader-killed hash %s != lossless twin %v", v.ConsensusStateHash, v.Baseline)
	}
	if v.GossipFailovers == 0 {
		t.Error("no failovers — the leader kill never promoted a successor")
	}
	if v.Recoveries == 0 {
		t.Error("no recoveries — the killed leader's journal restart did not replay")
	}
}

// gossipKillSpec is a four-region, two-neighborhood gossip run (hoods {0,2}
// and {1,3}) that kills non-leader edge 3 at round 4 and restarts it from
// its journal at round 7. With partition set, the cloud is additionally
// unreachable for rounds 6..10, overlapping the restart.
func gossipKillSpec(name string, partition bool) *Spec {
	s := &Spec{
		Version: 1,
		Name:    name,
		Seed:    61,
		Rounds:  14,
		Topology: Topology{
			Network: "inproc",
			Regions: 4,
			Graph:   "demo",
			Gossip: &GossipSpec{
				Neighborhoods: 2,
				EscalateEvery: 2,
				Deadline:      Duration(500 * time.Millisecond),
			},
		},
		Cloud: CloudSpec{
			X0:       0.3,
			TargetX:  0.85,
			Eps:      0.05,
			FixedLag: 8,
			Durable:  true,
		},
		Cohorts: []Cohort{{Name: "taxis", Kind: KindTaxi, PerRegion: 6}},
		Events:  []Event{{Round: 4, Action: "kill", Target: "edge:3", Until: 7}},
	}
	if partition {
		s.Events = append(s.Events,
			Event{Round: 6, Action: "partition", Target: "cloud", Until: 11})
	}
	return s
}

// TestGossipPartitionKillGolden is the determinism witness the issue asks
// for: a run where the cloud is partitioned away mid-run — overlapping a
// non-leader edge's kill -9 and journal restart — folds the exact same
// cloud state as a run that never lost the cloud. The census stream is
// connectivity-independent (ratios come from the local folds), escalation
// backlogs drain on heal in ascending round order, so only the kill — the
// same in both runs — shapes the fold.
func TestGossipPartitionKillGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	connected, err := Run(gossipKillSpec("gossip-kill-connected", false), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parted, err := Run(gossipKillSpec("gossip-kill-partitioned", true), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if parted.ConsensusStateHash != connected.ConsensusStateHash {
		t.Errorf("partitioned fold %s != always-connected fold %s",
			parted.ConsensusStateHash, connected.ConsensusStateHash)
	}
	if parted.GossipPartitionLocalRounds == 0 {
		t.Error("no local rounds completed during the partition")
	}
	if parted.GossipEscalationFailures == 0 {
		t.Error("no escalation failures — the partition never exercised the backlog")
	}
	for _, v := range []*Verdict{connected, parted} {
		if v.Recoveries == 0 {
			t.Errorf("%s: no recoveries — edge 3's journal restart did not replay", v.Name)
		}
		if v.GossipDegradedRounds == 0 {
			t.Errorf("%s: no degraded local rounds — the kill never bit the barrier", v.Name)
		}
	}
}
