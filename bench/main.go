// Command bench is the repo's round-pipeline benchmark: one vehicle fleet on
// three consensus topologies plus two census floods, each driven as a closed
// loop over loopback TCP with durable state, measured end to end (tracing
// off) and layer by layer (traced run + probes), with the correctness of
// every run checked against a reference fold. See README.md.
//
//	go run ./bench                                   # every workload, both runs, table on stderr, JSON on stdout
//	go run ./bench -workload fleet_direct -trace 1   # one traced run, the one-line result the driver reads
//	go run ./bench -aa 10                            # A/A: ten seeds per workload, spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload, once, and print the one-line result the driver reads (alias: -only)")
		seed      = flag.Int64("seed", 1, "seed every input derives from")
		seconds   = flag.Float64("seconds", 15, "length of each timed window")
		trace     = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run and probes")
		stateRoot = flag.String("state-root", ".bench_state", "directory for durable state, inside the checkout (each tier's state is removed afterwards)")
		traceOut  = flag.String("trace-out", "", "with -workload -trace 1: write the traced run's spans to this file as JSON")
		aa        = flag.Int("aa", 0, "A/A mode: run every workload's untraced run this many times (seeds seed, seed+1, ...) and compare the spread to the bounds")
	)
	flag.StringVar(name, "only", "", "alias of -workload")
	flag.Parse()
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, stateRoot: *stateRoot, traceOut: *traceOut,
		probeBudget: defaultProbeBudget}
	printMeta(os.Stderr, opts.stateRoot)

	var code int
	switch {
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		code = runOne(w, opts)
	case *aa > 0:
		code = runAA(*aa, opts)
	default:
		code = runAll(opts)
	}
	_ = os.Remove(opts.stateRoot) // every tier removed its own state; fails, harmlessly, if the root holds anything else
	os.Exit(code)
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func runOne(w workload, o runOpts) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(os.Stderr, res)
	line, err := json.Marshal(driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}
