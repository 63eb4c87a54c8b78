package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5 (interpolated, not a truncating pick)", got)
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// The driver judges spreads with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7}, 3, 10},
		{[]float64{5, 1}, 0, 6}, // python extrapolates past two points
		{[]float64{1.5, 9, 2.5, 4, 4, 8}, 2.25, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// The calibration unit does its work, reports what it cost, and a window
// takes that cost out of what it measured.
func TestCalibratorUnit(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	wall, cpu := cal.unit()
	if wall <= 0 || cpu < 0 || cal.err != nil {
		t.Errorf("unit took %v wall, %v cpu, err %v", wall, cpu, cal.err)
	}
	if ms := cal.burst(5); ms <= 0 {
		t.Errorf("burst median = %v ms", ms)
	}
	if got := 4 * scaleOf(2*calibNominalMS); got != 2 {
		t.Errorf("4 ms beside a unit twice as slow as nominal reads %v ms, want 2", got)
	}
	cal.close() // returns only once the echo goroutine has
	if wall, _ := cal.unit(); wall != 0 || cal.err == nil {
		t.Errorf("a closed calibrator ran a unit (%v) or kept no error", wall)
	}
}

func TestStagesPartitionEachRound(t *testing.T) {
	epoch := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return epoch.Add(time.Duration(ms * 1e6)) }
	// Two edges, three rounds with different shapes.
	rounds := []*stamps{
		{start: at(0), end: at(10), runEnd: []time.Time{at(4), at(7)}, repStart: []time.Time{at(4), at(7)}, repEnd: []time.Time{at(9), at(10)}},
		{start: at(20), end: at(26), runEnd: []time.Time{at(25), at(22)}, repStart: []time.Time{at(25), at(22)}, repEnd: []time.Time{at(26), at(26)}},
		{start: at(30), end: at(45), runEnd: []time.Time{at(31), at(32)}, repStart: []time.Time{at(31), at(32)}, repEnd: []time.Time{at(45), at(44)}},
	}
	s := stagesOf(rounds)
	for r := range rounds {
		if got := s.ahead[r] + s.commit[r]; math.Abs(got-s.round[r]) > 1e-9 {
			t.Errorf("round %d: ahead %v + commit %v = %v, want the round's %v", r, s.ahead[r], s.commit[r], got, s.round[r])
		}
	}
	if want := []float64{7, 5, 2}; !equalFloats(s.ahead, want) {
		t.Errorf("ahead = %v, want %v (the slowest edge's RunRound)", s.ahead, want)
	}
	if want := []float64{3, 3, 1}; !equalFloats(s.skew, want) {
		t.Errorf("skew = %v, want %v", s.skew, want)
	}
	if len(s.runRound) != 6 || len(s.uplink) != 6 {
		t.Errorf("got %d run_round and %d uplink samples, want one per edge per round", len(s.runRound), len(s.uplink))
	}
	// Medians 5 + 3 against a round median of 10.
	if got := s.sumGap(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("sumGap = %v, want 0.2", got)
	}

	// A flood has no RunRound: the whole round is commit.
	flood := stagesOf([]*stamps{{start: at(0), end: at(5), runEnd: make([]time.Time, 2),
		repStart: []time.Time{at(0), at(0)}, repEnd: []time.Time{at(5), at(4)}}})
	if flood.ahead[0] != 0 || flood.commit[0] != 5 || len(flood.runRound) != 0 || len(flood.skew) != 0 {
		t.Errorf("flood stages = %+v, want all commit and no edge samples", flood)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestCountingConnPassesThrough(t *testing.T) {
	tr := newTracer()
	tier := &tier{tr: tr}
	a, b := transport.Pipe()
	defer b.Close()
	conn, err := tier.dial(linkEdgeUp, func() (transport.Conn, error) { return a, nil })()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	census := transport.Census{Edge: 3, Round: 7, Counts: []int{1, 2, 3}}
	exchange := func() {
		t.Helper()
		m, err := transport.Encode(transport.KindCensus, census)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var back transport.Census
		if err := transport.Decode(got, transport.KindCensus, &back); err != nil || back.Edge != 3 || back.Round != 7 || len(back.Counts) != 3 {
			t.Fatalf("census crossed the wrapper as %+v (%v)", back, err)
		}
		reply, err := transport.Encode(transport.KindRatio, transport.Ratio{Round: 8, X: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(reply); err != nil {
			t.Fatal(err)
		}
		if got, err = conn.Recv(); err != nil || got.Kind != transport.KindRatio {
			t.Fatalf("reply crossed the wrapper as %v (%v)", got.Kind, err)
		}
	}

	exchange() // tracing off: nothing is counted
	if n := tr.frames[linkEdgeUp].Load(); n != 0 || len(tr.sendSamples()) != 0 || len(tr.samples) != 0 {
		t.Fatalf("tracer counted %d frames while off", n)
	}
	tr.on.Store(true)
	exchange()
	exchange()
	if n := tr.frames[linkEdgeUp].Load(); n != 4 {
		t.Errorf("counted %d frames, want 4 (2 sent + 2 received)", n)
	}
	if n := tr.frames[linkTier].Load(); n != 0 {
		t.Errorf("counted %d frames on another link class", n)
	}
	if n := len(tr.sendSamples()); n != 2 {
		t.Errorf("timed %d sends, want 2", n)
	}
	if n := len(tr.samples[transport.KindCensus]); n != 2 {
		t.Errorf("kept %d census frames for the codec probe, want 2", n)
	}
}

// benchmarkJSON mirrors the keys the driver's contract allows.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if got := strings.Join(decl.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 s; each needs up
	// to 10 s beside its window for seven set-ups and the reference fold
	// (flood_rewind, the slowest, was measured at 24.6 s with a 15 s window).
	runs := 4 + 22*len(decl.Workloads)
	if perRun := 3420 / runs; decl.RunSeconds < 1 || decl.RunSeconds+10 > perRun {
		t.Errorf("run_seconds = %d leaves no room: %d runs share 3420 s (%d s each)", decl.RunSeconds, runs, perRun)
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d declared as %q / %q, built as %q / %q", i, d.Name, d.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q (%q, %q) breaks the naming contract", n, u, better)
		}
		if seen[n] {
			t.Errorf("metric %q declared twice", n)
		}
		seen[n] = true
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the catalog", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := decl.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		check(d.Name, d.Unit, d.Better)
	}
	if e := endToEnd[0]; e.Name != "setup_s" || e.Unit != "s" || e.Better != "lower" {
		t.Errorf("the contract needs setup_s in s, lower is better; got %+v", e)
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the catalog (at most 128)", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := decl.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, got, d)
		}
		check(d.Name, d.Unit, d.Better)
	}
}

func smokeOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 7, seconds: 60, rounds: 5, trace: trace, stateRoot: t.TempDir(), probeBudget: time.Millisecond}
}

func metricNames(ms metricSet) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func catalogNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// Every workload builder, shrunk to a couple of regions and five timed
// rounds, must pass its own correctness gate on both kinds of run and emit
// exactly the declared metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	untraced, traced := map[string]*result{}, map[string]*result{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w.small(), smokeOpts(t, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s (trace %v): failed %d of %d, problems %v", w.Name, trace, res.Failed, res.Attempted, res.Problems)
			}
			if res.Rounds != 5 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d timed rounds, %d ops", w.Name, trace, res.Rounds, res.Attempted)
			}
			want := catalogNames(endToEnd)
			if trace {
				want = catalogNames(perLayer)
			}
			if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s (trace %v): emitted %v, declared %v", w.Name, trace, got, want)
			}
			if trace {
				traced[w.Name] = res
			} else {
				untraced[w.Name] = res
				if got, want := res.Metrics["round_ms_p50"].Value, res.Raw["round_ms_p50"]*scaleOf(res.CalibMS); res.CalibMS <= 0 || got != want {
					t.Errorf("%s: round_ms_p50 = %v, want the raw median scaled by the window's calibration (%v ms): %v", w.Name, got, res.CalibMS, want)
				}
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.Name, d.Name, v)
					}
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	if msg, same := sameFoldAt(untraced["fleet_direct"], untraced["fleet_sharded"]); !same {
		t.Errorf("the shard tier changed the fold: %s", msg)
	}
	// The workloads separate the layers as designed.
	for name, want := range map[string]float64{"flood_sharded": 0, "flood_rewind": 1} {
		if got := traced[name].Metrics["cloud.rewinds_per_round"].Value; got != want {
			t.Errorf("%s: cloud.rewinds_per_round = %v, want %v", name, got, want)
		}
		if got := traced[name].Metrics["edge.run_round_slowest_ms_p50"].Value; got != 0 {
			t.Errorf("%s: edge.run_round_slowest_ms_p50 = %v, want 0 (no edge servers)", name, got)
		}
	}
	if got := traced["fleet_direct"].Metrics["edge.run_round_slowest_ms_p50"].Value; got <= 0 {
		t.Errorf("fleet_direct: edge.run_round_slowest_ms_p50 = %v, want > 0", got)
	}
}

// The gate must fail when the reference disagrees with the tier: feed it a
// census stream with one count changed.
func TestCorruptedReferenceFailsTheGate(t *testing.T) {
	w, _ := workloadByName("fleet_direct")
	w = w.small()
	tier, _, err := setUp(w, smokeOpts(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.close()
	marks := tier.watermarks()
	win := tier.run(w.Warmup, 5, 0, nil, nil)
	total := w.Warmup + win.rounds
	src := tier.censusAt(total)
	if _, problems := tier.verify(total, src, marks, tier.hashChain); len(problems) != 0 {
		t.Fatalf("honest reference rejected: %v", problems)
	}

	const badRound = 3
	corrupt := func(r int) map[int][]int {
		m := src(r)
		if r == badRound {
			m[0] = append([]int(nil), m[0]...)
			m[0][0] += 2
		}
		return m
	}
	_, problems := tier.verify(total, corrupt, marks, tier.hashChain)
	if len(problems) == 0 {
		t.Fatal("a corrupted reference passed the gate")
	}
	res := &result{Problems: problems}
	if res.correct() {
		t.Error("a run with problems counts as correct")
	}
	if !strings.Contains(problems[0], "first differing round: 3 ") {
		t.Errorf("the failure does not name round %d as the first to differ: %s", badRound, problems[0])
	}
}
