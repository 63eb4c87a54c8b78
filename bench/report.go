package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
)

// fsName names the filesystem holding dir, since fsync cost is most of what
// "durable" means to these numbers.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("type 0x%x", uint32(st.Type))
	}
}

// meta is the run metadata printed with every result.
type meta struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	StateRootFS   string `json:"state_root_fs"`
	InjectedDelay string `json:"injected_delay"`
	LoadModel     string `json:"load_model"`
	Timing        string `json:"timing"`
}

func runMeta(stateRoot string) meta {
	return meta{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		StateRootFS:   fsName(stateRoot),
		InjectedDelay: "none: loopback TCP, so latency is processor and kernel time",
		LoadModel:     "closed loop, one round in flight, one driver process",
		Timing: fmt.Sprintf("end-to-end timings are calibrated (raw x %.1f ms / the run's median calibration unit); per-layer timings are on this machine's clock",
			calibNominalMS),
	}
}

func printMeta(w io.Writer, stateRoot string) {
	m := runMeta(stateRoot)
	fmt.Fprintf(w, "bench: nproc %d, GOMAXPROCS %d, %s, state root on %s; %s; injected delay %s; %s\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.StateRootFS, m.LoadModel, m.InjectedDelay, m.Timing)
}

func catalogOf(res *result) []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// printResult is the human table of one run.
func printResult(w io.Writer, res *result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced + probes"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s  %d timed rounds (= latency samples)  ops %d  failed %d  hash %08x  %s\n",
		res.Workload, res.Seed, kind, res.Rounds, res.Attempted, res.Failed, res.Hash, verdictWord(res.correct()))
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  INCORRECT:", p)
	}
	for _, d := range catalogOf(res) {
		fmt.Fprintf(w, "  %-42s %14.4f %s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if raw, scaled := res.Raw[d.Name]; scaled {
			fmt.Fprintf(w, "   (calibrated; on this machine's clock %.4f)", raw)
		}
		fmt.Fprintln(w)
	}
	if !res.Traced {
		fmt.Fprintf(w, "  calibration unit %.4f ms here, %.1f ms nominal: timings above are scaled by %.3f (setup_s per set-up)\n",
			res.CalibMS, calibNominalMS, scaleOf(res.CalibMS))
	}
	if m := res.Metrics; res.Traced && m["edge.run_round_slowest_ms_p50"].Value > 0 {
		fmt.Fprintf(w, "  of a 100 ms perception cycle (medians): slowest edge's vehicle round %.1f ms, then consensus commit %.1f ms\n",
			m["edge.run_round_slowest_ms_p50"].Value, m["cloud.commit_ms_p50"].Value)
	}
}

func verdictWord(ok bool) string {
	if ok {
		return "correct"
	}
	return "INCORRECT"
}

// workloadReport is one workload's part of the all-workloads JSON.
type workloadReport struct {
	Name      string    `json:"name"`
	Why       string    `json:"why"`
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Hash      string    `json:"consensus_state_hash"`
	Rounds    int       `json:"timed_rounds"`
	Attempted int       `json:"ops"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
	Traced    int       `json:"traced_rounds"`
}

// sameFoldAt checks two runs of one seed folded the same history: their
// reference folds agree after the rounds both ran.
func sameFoldAt(a, b *result) (string, bool) {
	n := min(a.total, b.total)
	ha, err := a.refHashAt(n)
	if err != nil {
		return err.Error(), false
	}
	hb, err := b.refHashAt(n)
	if err != nil {
		return err.Error(), false
	}
	if ha != hb {
		return fmt.Sprintf("%s (%s) folds %08x and %s (%s) folds %08x after their first %d rounds",
			a.Workload, runKind(a), ha, b.Workload, runKind(b), hb, n), false
	}
	return "", true
}

func runKind(r *result) string {
	if r.Traced {
		return "traced"
	}
	return "untraced"
}

// runAll is the one command that runs everything: every workload untraced
// and traced, the cross-run checks, a table on stderr and JSON on stdout.
func runAll(o runOpts) int {
	var reports []workloadReport
	untraced := map[string]*result{}
	ok := true
	fail := func(msg string) {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", msg)
		ok = false
	}
	for _, w := range workloads {
		o.trace = false
		plain, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printResult(os.Stderr, plain)
		o.trace = true
		traced, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printResult(os.Stderr, traced)
		ok = ok && plain.correct() && traced.correct()
		untraced[w.Name] = plain
		if !w.Flood {
			// One seed, two runs of different length: the fleet's census
			// stream must not depend on timing.
			if msg, same := sameFoldAt(plain, traced); !same {
				fail(msg)
			}
		}
		reports = append(reports, workloadReport{
			Name: w.Name, Why: w.Why, Seed: o.seed,
			Correct: plain.correct() && traced.correct(),
			Hash:    fmt.Sprintf("%08x", plain.Hash),
			Rounds:  plain.Rounds, Attempted: plain.Attempted, Failed: plain.Failed,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics, Traced: traced.Rounds,
		})
	}
	// (a) the shard tier changes the route, not the fold.
	if msg, same := sameFoldAt(untraced["fleet_direct"], untraced["fleet_sharded"]); !same {
		fail(msg)
	}
	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	if err := out.Encode(map[string]any{"meta": runMeta(o.stateRoot), "workloads": reports}); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver judges spreads by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	ld := len(sorted)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// runAA repeats the driver's own procedure: every workload's untraced run,
// sets times, each a fresh process of this binary with another seed. It
// reports each end-to-end metric's median and spread against its bound — the
// tool that set the bounds in the catalog — and fails when a run is
// incorrect or a spread (setup_s aside, as for the driver) exceeds its bound.
func runAA(sets int, o runOpts) int {
	if sets < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 sets")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	ok := true
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < sets; i++ {
			cmd := exec.Command(self, "-workload", w.Name, "-trace", "0",
				"-seed", fmt.Sprint(o.seed+int64(i)), "-seconds", fmt.Sprint(o.seconds), "-state-root", o.stateRoot)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line driverLine
			if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s set %d printed no result (%v, %v)\n", w.Name, i, err, jerr)
				return 1
			}
			ok = ok && err == nil && line.Correct
			for name, v := range line.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("\n%s: %d sets, seeds %d..%d\n", w.Name, sets, o.seed, o.seed+int64(sets)-1)
		fmt.Printf("  %-24s %14s %9s %7s\n", "metric", "median", "spread", "bound")
		for _, d := range endToEnd {
			s := spread(values[d.Name])
			verdict := "inside"
			switch {
			case s > d.Bound && d.Name == "setup_s":
				verdict = "outside (not judged: set-up is bounded on its median only)"
			case s > d.Bound:
				verdict = "OUTSIDE"
				ok = false
			case s > d.Bound/3:
				verdict = "inside, above a third of the bound"
			}
			fmt.Printf("  %-24s %14.4f %8.2f%% %6.0f%%  %s\n", d.Name, median(values[d.Name]), s*100, d.Bound*100, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
