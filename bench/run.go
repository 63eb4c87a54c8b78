package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// setupRepeats is how many times an untraced run builds and warms its tier
// (the last one is measured on); setup_s is the median.
const setupRepeats = 7

// runOpts parameterize one run of one workload.
type runOpts struct {
	seed      int64
	seconds   float64 // length of the timed window
	rounds    int     // > 0: the timed window is this many rounds instead
	trace     bool
	stateRoot string
	traceOut  string // traced runs: write the spans here ("" = keep in memory only)
	// probeBudget bounds each probe loop of a traced run.
	probeBudget time.Duration
}

// result is what one run reports.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Rounds    int // timed rounds = latency samples
	Attempted int
	Failed    int
	Metrics   metricSet
	Hash      uint32
	Problems  []string
	// CalibMS is the median calibration unit time of the window; Raw holds
	// the untraced run's window timings before they were scaled by it.
	CalibMS float64
	Raw     map[string]float64

	// refHashAt replays the run's censuses through a reference fold for the
	// first n rounds; cross-workload checks compare runs at a common n.
	refHashAt func(n int) (uint32, error)
	total     int // rounds folded, warm-up included
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// setUp builds the workload's tier and runs its warm-up rounds — everything
// between process start and the first timed round.
func setUp(w workload, o runOpts, tr *tracer) (*tier, time.Duration, error) {
	start := time.Now()
	t, err := buildTier(w, o.seed, o.stateRoot, tr)
	if err != nil {
		return nil, 0, err
	}
	warm := t.run(0, w.Warmup, 0, nil, nil)
	if warm.failed > 0 {
		t.close()
		return nil, 0, fmt.Errorf("%s: %d of %d warm-up reports failed", w.Name, warm.failed, warm.attempted)
	}
	return t, time.Since(start), nil
}

// hashGauge is the tier's live consensus_state_hash, which the cloud sets
// after every fold; reading it costs one atomic load.
func (t *tier) hashGauge() *obs.Gauge {
	return t.obs.Registry().Gauge("consensus_state_hash", "")
}

// runWorkload runs one workload once: untraced for the end-to-end metrics,
// or traced (plus probes) for the per-layer ones.
func runWorkload(w workload, o runOpts) (*result, error) {
	if err := os.MkdirAll(o.stateRoot, 0o755); err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(w, o)
	}
	res := &result{Workload: w.Name, Seed: o.seed, Metrics: newMetricSet(endToEnd)}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Each set-up is scaled by the calibration units run right after it.
	var t *tier
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			t.close()
		}
		var took time.Duration
		if t, took, err = setUp(w, o, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds()*scaleOf(cal.burst(calibBurst)))
	}
	defer t.close()

	marks := t.watermarks()
	win := t.run(w.Warmup, o.rounds, time.Duration(o.seconds*float64(time.Second)), nil, cal)
	if cal.err != nil {
		return nil, cal.err
	}
	if _, err := t.flush(); err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: flush: %v", w.Name, err))
	}
	t.finish(res, win, marks)

	// The four window timings are reported in calibrated time (calib.go);
	// the raw ones go to the table on stderr.
	n := float64(win.rounds)
	res.CalibMS = median(win.calibMS)
	scale := scaleOf(res.CalibMS)
	res.Raw = map[string]float64{
		"round_ms_p50":     percentile(win.ms, 0.50),
		"round_ms_p99":     percentile(win.ms, 0.99),
		"rounds_per_s":     n / win.elapsed.Seconds(),
		"cpu_ms_per_round": float64(win.cpu) / 1e6 / n,
	}
	m := res.Metrics
	m.set("setup_s", median(setups))
	m.set("round_ms_p50", res.Raw["round_ms_p50"]*scale)
	m.set("round_ms_p99", res.Raw["round_ms_p99"]*scale)
	m.set("rounds_per_s", res.Raw["rounds_per_s"]/scale)
	m.set("cpu_ms_per_round", res.Raw["cpu_ms_per_round"]*scale)
	m.set("allocs_per_round", float64(win.mallocs)/n)
	m.set("wire_bytes_per_round", win.perRound("transport_bytes_sent_total"))
	m.set("peak_rss_mb", float64(win.peakRSSKiB)/1024)
	return res, nil
}

// finish fills the parts of a result every kind of run shares: counts, the
// hash, and the correctness gate over all rounds folded so far.
func (t *tier) finish(res *result, win *window, marks []int) *reference {
	res.Rounds = win.rounds
	res.Attempted, res.Failed = win.attempted, win.failed
	res.total = win.first + win.rounds
	res.Hash = t.agg.StateHash()
	src := t.censusAt(res.total)
	ref, problems := t.verify(res.total, src, marks, t.hashChain)
	res.Problems = append(res.Problems, problems...)
	for _, name := range []string{"consensus_degraded_rounds_total", "shard_degraded_rounds_total", "gossip_degraded_rounds_total"} {
		if n := sumOf(win.after, name); n > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %s = %.0f, want 0", t.w.Name, name, n))
		}
	}
	res.refHashAt = func(n int) (uint32, error) {
		ref, err := t.reference(n, src, false)
		if err != nil {
			return 0, err
		}
		return ref.hash, nil
	}
	return ref
}
