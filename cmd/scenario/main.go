// Command scenario executes declarative consensus scenarios.
//
//	scenario run spec.json [-json] [-seed N] [-q] [-metrics addr]
//	scenario check spec.json...
//
// run compiles the JSON spec into the configuration of every node, starts
// them (in-proc or TCP, per the spec), executes it, and prints the verdict — human-readable by default, machine-
// readable with -json. -metrics serves the run's live /metrics (Prometheus
// text) on addr while the scenario is in flight, so smoke jobs can assert
// mid-run counters. Exit status: 0 when every verdict check passed, 2
// when the run finished but a check failed, 1 on infrastructure errors.
// check validates specs without running them: it compiles every node and
// checks each, so a spec that checks is a spec that starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  scenario run spec.json [-json] [-seed N] [-q] [-metrics addr]
  scenario check spec.json...
`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the verdict as JSON")
	seed := fs.Int64("seed", 0, "override the spec's seed (0 keeps it)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	metrics := fs.String("metrics", "", "serve the run's live /metrics on this address while it executes")
	spec, rest, err := parseSpecArg(fs, args)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("run takes one spec file")
	}

	opts := scenario.RunOptions{}
	if *seed != 0 {
		opts.Seed = seed
	}
	if *metrics != "" {
		o := obs.New()
		srv, err := obs.Serve(*metrics, o)
		if err != nil {
			return err
		}
		defer srv.Close()
		opts.Obs = o
		fmt.Fprintf(os.Stderr, "# metrics on http://%s/metrics\n", srv.Addr())
	}
	if !*quiet {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", a...)
		}
	}
	verdict, err := scenario.Run(spec, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		out, err := json.MarshalIndent(verdict, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		printVerdict(verdict)
	}
	if !verdict.Pass {
		os.Exit(2)
	}
	return nil
}

func printVerdict(v *scenario.Verdict) {
	fmt.Printf("scenario %s: seed %d, %s, %d regions", v.Name, v.Seed, v.Network, v.Regions)
	if v.Shards > 1 {
		fmt.Printf(", %d shards", v.Shards)
	}
	fmt.Printf(", %d vehicles, %d rounds\n", v.Vehicles, v.Rounds)
	fmt.Printf("  converged:      %v (round %d), mean sharing ratio %.3f\n",
		v.Converged, v.ConvergedRound, v.MeanSharingRatio)
	fmt.Printf("  state hash:     %s\n", v.ConsensusStateHash)
	fmt.Printf("  degraded/rewound rounds: %d/%d (replayed %d, late %d, dup %d)\n",
		v.DegradedRounds, v.Rewinds, v.ReplayedRounds, v.LateCensuses, v.DuplicateCensuses)
	if v.Recoveries > 0 || v.LeaseEvictions > 0 {
		fmt.Printf("  recoveries:     %d (lease evictions %d)\n", v.Recoveries, v.LeaseEvictions)
	}
	if v.FaultsInjected > 0 || v.FailedReports > 0 {
		fmt.Printf("  faults:         %d injected, %d failed reports\n", v.FaultsInjected, v.FailedReports)
	}
	if v.GossipLocalRounds > 0 {
		fmt.Printf("  gossip:         %d local rounds (%d degraded, %d during partition), %d escalations (%d failed)\n",
			v.GossipLocalRounds, v.GossipDegradedRounds, v.GossipPartitionLocalRounds,
			v.GossipEscalations, v.GossipEscalationFailures)
	}
	fmt.Printf("  welfare:        %.2f net (utility %.2f - cost %.2f, %d items)\n",
		v.Welfare.Net, v.Welfare.ReceivedUtility, v.Welfare.SharedCost, v.Welfare.DeliveredItems)
	fmt.Printf("  round latency:  p50 %.1fms p99 %.1fms (total %.0fms)\n",
		v.RoundLatency.P50MS, v.RoundLatency.P99MS, v.ElapsedMS)
	if v.Baseline != nil {
		fmt.Printf("  vs lossless:    hash %s (equal=%v), welfare delta %+.2f\n",
			v.Baseline.ConsensusStateHash, v.Baseline.HashEqual, v.Baseline.WelfareDelta)
	}
	for _, c := range v.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %-24s %s  (%s)\n", c.Name+":", status, c.Detail)
	}
	if v.Pass {
		fmt.Println("PASS")
	} else {
		fmt.Println("FAIL")
	}
}

func cmdCheck(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("check takes one or more spec files")
	}
	failed := false
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := scenario.ParseSpec(data); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if failed {
		os.Exit(2)
	}
	return nil
}

// parseSpecArg parses flags that may appear before or after the spec path
// and loads the spec.
func parseSpecArg(fs *flag.FlagSet, args []string) (*scenario.Spec, []string, error) {
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() < 1 {
		return nil, nil, fmt.Errorf("%s takes a spec file", fs.Name())
	}
	// Allow trailing flags after the positional spec path.
	path := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, fs.Args(), nil
}
