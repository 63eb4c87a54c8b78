package main

import (
	"sort"

	"repro/internal/metrics"
)

// metricDef declares one metric the benchmark emits; BENCHMARK.json lists
// the same names, units, directions and bounds (a test keeps them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. The five timings are in calibrated time (calib.go): the box that sized
// them drifts by 20-40 % for minutes at a time, raw ten-seed spreads there
// are 7-30 %, calibrated ones 2-11 %. Each bound is max(3 x the widest
// calibrated ten-seed spread measured on any workload, the issue's seed
// value), capped at the driver's 0.25, which is where every timing lands
// (README.md has the spreads). failed_share is not here because it must be 0
// on every workload: it is reported through the result's attempted/failed
// counts and gates correctness.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"round_ms_p99", "ms", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"allocs_per_round", "count", "lower", 0.05},
	{"wire_bytes_per_round", "B", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run and the probes,
// prefixed by the package they measure. A metric that does not apply to a
// workload (gossip.* on a flood) reads 0 there.
var perLayer = []metricDef{
	{Name: "vehicle.revise_us", Unit: "us", Better: "lower"},
	{Name: "vehicle.absorb_us", Unit: "us", Better: "lower"},

	{Name: "edge.run_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "edge.run_round_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "edge.run_round_slowest_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "edge.skew_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "edge.report_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "edge.report_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "edge.uploads_per_round", Unit: "count", Better: "higher"},
	{Name: "edge.distribute_us", Unit: "us", Better: "lower"},

	{Name: "transport.msgs_per_round.vehicle_edge", Unit: "count", Better: "lower"},
	{Name: "transport.msgs_per_round.edge_up", Unit: "count", Better: "lower"},
	{Name: "transport.msgs_per_round.tier", Unit: "count", Better: "lower"},
	{Name: "transport.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.send_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.encode_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "transport.decode_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "transport.encode_ns.census", Unit: "ns", Better: "lower"},
	{Name: "transport.encode_ns.census_batch", Unit: "ns", Better: "lower"},
	{Name: "transport.encode_ns.upload", Unit: "ns", Better: "lower"},
	{Name: "transport.encode_ns.delivery", Unit: "ns", Better: "lower"},
	{Name: "transport.encode_ns.digest", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns.census", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns.census_batch", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns.upload", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns.delivery", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns.digest", Unit: "ns", Better: "lower"},
	{Name: "transport.frame_bytes.census_batch", Unit: "B", Better: "lower"},
	{Name: "transport.frame_bytes.digest", Unit: "B", Better: "lower"},

	{Name: "shard.round_span_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.forwards_per_round", Unit: "count", Better: "lower"},
	{Name: "shard.late_singles_per_round", Unit: "count", Better: "lower"},
	{Name: "shard.open_ms", Unit: "ms", Better: "lower"},

	{Name: "gossip.local_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gossip.local_round_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gossip.peer_sends_per_round", Unit: "count", Better: "lower"},
	{Name: "gossip.escalations_per_round", Unit: "count", Better: "lower"},
	{Name: "gossip.beats_per_round", Unit: "count", Better: "lower"},
	{Name: "gossip.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "gossip.open_ms", Unit: "ms", Better: "lower"},

	{Name: "cloud.barrier_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cloud.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cloud.commit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "cloud.round_span_ms", Unit: "ms", Better: "lower"},
	{Name: "cloud.fold_us", Unit: "us", Better: "lower"},
	{Name: "cloud.rewind_us", Unit: "us", Better: "lower"},
	{Name: "cloud.rewinds_per_round", Unit: "count", Better: "lower"},
	{Name: "cloud.replayed_per_rewind", Unit: "count", Better: "lower"},
	{Name: "cloud.corrections_per_round", Unit: "count", Better: "lower"},
	{Name: "cloud.open_ms", Unit: "ms", Better: "lower"},

	{Name: "policy.fds_update_us", Unit: "us", Better: "lower"},
	{Name: "policy.converged_round", Unit: "count", Better: "lower"},
	{Name: "game.linearize_us", Unit: "us", Better: "lower"},

	{Name: "durable.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "durable.append_us_p99", Unit: "us", Better: "lower"},
	{Name: "durable.append_group8_us_p50", Unit: "us", Better: "lower"},
	{Name: "durable.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.checkpoint_bytes", Unit: "B", Better: "lower"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.stage_sum_gap", Unit: "ratio", Better: "lower"},
	{Name: "bench.calib_unit_ms", Unit: "ms", Better: "lower"},
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values against a catalog; every catalog entry
// starts at 0 so a metric that does not apply is still emitted.
type metricSet map[string]value

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.Name] = value{Unit: d.Unit}
	}
	return ms
}

// set records v under name; an undeclared name is a programming error the
// schema test catches, so it panics rather than emit a stray metric.
func (ms metricSet) set(name string, v float64) {
	cur, ok := ms[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	cur.Value = v
	ms[name] = cur
}

// percentile is the q-quantile (0..1) of xs with linear interpolation
// between order statistics (metrics.Quantile), unlike the truncating pick
// of scenario's latency report. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return metrics.Quantile(sorted, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
