package main

import (
	"time"

	"repro/internal/sensor"
)

// workload is one named input shape of the benchmark. The five shapes are
// fixed (later issues refer to them by name); tests shrink them with small.
type workload struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json records.
	Why string

	// Flood workloads have no vehicles or edge servers: the driver reports
	// pre-generated censuses over one edge.BatchLink per shard, so the
	// consensus tier is ~all of the round.
	Flood   bool
	Regions int
	// Taxi and Transit are the per-region cohort sizes of a fleet workload
	// (the citywide.yaml cohort kinds).
	Taxi, Transit int
	// PerCensus is the simulated vehicle count behind each flood census.
	PerCensus int
	// Shards > 0 puts that many durable shard.Coordinators between the
	// edges and the aggregator; 0 reports straight to one cloud.Server.
	Shards int
	// Hoods > 0 switches the edges to the gossip data plane with that many
	// neighborhoods (escalate_every 4, failover_ttl 250ms).
	Hoods int
	// Rewind follows every flood round with one differing census for a
	// round 1-4 behind the head, exercising rewind + re-fold + corrections.
	Rewind bool
	// Warmup is the number of untimed rounds run as part of set-up.
	Warmup int
}

const (
	// fixedLag is every workload's cloud rewind window (citywide.yaml).
	fixedLag = 8
	// maxRewindDepth bounds how far behind the head a flood_rewind late
	// census lands; it must stay inside fixedLag.
	maxRewindDepth = 4
	// gossipEvery and gossipTTL are fleet_gossip's escalation cadence and
	// leader lease.
	gossipEvery = 4
	gossipTTL   = 250 * time.Millisecond
	// floodPool is how many distinct pre-generated census rounds a flood
	// workload cycles through (round t reports pool[t % floodPool]).
	floodPool = 64
	// maxRounds caps one timed window, bounding the pre-generated late
	// census schedule; no window comes near it.
	maxRounds = 1 << 15
)

var workloads = []workload{
	{
		Name:    "fleet_direct",
		Why:     "256 vehicles, 16 edges, one durable cloud: the full pipeline and single-node baseline; vehicle<->edge traffic dominates",
		Regions: 16, Taxi: 12, Transit: 4, Warmup: 50,
	},
	{
		Name:    "fleet_sharded",
		Why:     "same fleet and seed through 4 durable shards + aggregator: the difference from fleet_direct is the shard hop; must fold the same hash",
		Regions: 16, Taxi: 12, Transit: 4, Shards: 4, Warmup: 50,
	},
	{
		Name:    "fleet_gossip",
		Why:     "same fleet on 4 gossip neighborhoods: peer exchange, hood barrier, heartbeats and digest escalation replace the cloud link",
		Regions: 16, Taxi: 12, Transit: 4, Hoods: 4, Warmup: 50,
	},
	{
		Name:    "flood_sharded",
		Why:     "no vehicles: 1024 pre-generated censuses per round over 2 links, so batch decode, barriers, fold at M=1024, fsync and reply are the round",
		Flood:   true,
		Regions: 1024, PerCensus: 100, Shards: 2, Warmup: 50,
	},
	{
		Name:    "flood_rewind",
		Why:     "flood_sharded plus one late differing census per round: rewind, re-fold and correction fan-out beside the forward fold",
		Flood:   true,
		Regions: 1024, PerCensus: 100, Shards: 2, Rewind: true, Warmup: 50,
	},
}

// cohort is one homogeneous slice of a fleet workload's per-region vehicles.
type cohort struct {
	n        int
	equipped sensor.Mask // every cohort desires the full sensor set
}

// cohorts are scenarios/citywide.yaml's kinds: taxis carry the full suite,
// transit buses camera + lidar.
func (w workload) cohorts() []cohort {
	return []cohort{
		{w.Taxi, sensor.MaskAll},
		{w.Transit, sensor.MaskOf(sensor.Camera, sensor.LiDAR)},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// small shrinks a workload to a 2-region fleet (8-region flood, so both
// shards own regions) with a short warm-up, keeping its topology — the
// shape the smoke tests run.
func (w workload) small() workload {
	if w.Flood {
		w.Regions, w.PerCensus = 8, 10
	} else {
		w.Regions, w.Taxi, w.Transit = 2, 3, 1
	}
	if w.Shards > 0 {
		w.Shards = 2
	}
	if w.Hoods > 0 {
		w.Hoods = 1
	}
	w.Warmup = maxRewindDepth // so every timed flood_rewind round has its late census
	return w
}
