// Command repro regenerates every table and figure of the paper's
// evaluation section from the library:
//
//	repro -exp all                 # everything at laptop scale
//	repro -exp fig9 -scale full    # one experiment at paper scale
//	repro -list                    # enumerate experiments
//
// Output is a textual rendering of each table/figure plus the paper-vs-
// measured checks recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

type runner func(scale experiments.Scale) error

func main() {
	var (
		expName      = flag.String("exp", "all", "experiment to run (see -list)")
		scale        = flag.String("scale", "small", "small | full")
		list         = flag.Bool("list", false, "list experiments and exit")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		buildWorkers = flag.Int("build-workers", 0, "world-build worker-pool size (0 = all CPUs); never changes results")
	)
	flag.Parse()
	worldWorkers = *buildWorkers

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: creating cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "repro: starting cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: creating heap profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "repro: writing heap profile: %v\n", err)
			}
		}()
	}

	table := map[string]runner{
		"table2":          runTable2,
		"table3":          runTable3,
		"fig7":            runFig7,
		"fig8":            runFig8,
		"fig9":            runFig9,
		"fig10":           runFig10,
		"ablation-lambda": runAblationLambda,
		"ablation-beta":   runAblationBeta,
		"welfare":         runWelfare,
		"micro-macro":     runMicroMacro,
	}

	if *list {
		names := make([]string, 0, len(table))
		for n := range table {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("experiments:", strings.Join(names, ", "), "(or: all)")
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.ScaleSmall
	case "full":
		sc = experiments.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown scale %q (want small or full)\n", *scale)
		os.Exit(2)
	}

	var selected []string
	if *expName == "all" {
		selected = []string{"table3", "table2", "fig7", "fig8", "fig9", "fig10", "ablation-lambda", "ablation-beta", "welfare", "micro-macro"}
	} else {
		if _, ok := table[*expName]; !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (use -list)\n", *expName)
			os.Exit(2)
		}
		selected = []string{*expName}
	}

	for _, name := range selected {
		start := time.Now()
		if err := table[name](sc); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func runTable3(experiments.Scale) error {
	res, err := experiments.Table3()
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runTable2(experiments.Scale) error {
	return experiments.Table2().Render(os.Stdout)
}

// worldBuilder shares one artifact cache across every world built in this
// process, so repeated experiments (and the BC/TD pair of one scale) reuse
// the road network, trace, and map-matching stages. worldWorkers carries the
// -build-workers flag; it bounds the build's worker pools without affecting
// results.
var (
	worldBuilder = sim.NewWorldBuilder()
	worldWorkers int
	worldCache   = map[experiments.Scale][2]*sim.World{}
)

func cachedWorlds(sc experiments.Scale) (*sim.World, *sim.World, error) {
	if pair, ok := worldCache[sc]; ok {
		return pair[0], pair[1], nil
	}
	fmt.Printf("(building %s-scale worlds: road network, trace, clustering...)\n", sc)
	bc, td, err := experiments.WorldsWith(worldBuilder, sc, worldWorkers)
	if err != nil {
		return nil, nil, err
	}
	worldCache[sc] = [2]*sim.World{bc, td}
	return bc, td, nil
}

func runFig7(sc experiments.Scale) error {
	bc, _, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.Fig7(bc)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runFig8(sc experiments.Scale) error {
	bc, td, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.Fig8(bc, td)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runFig9(sc experiments.Scale) error {
	bc, td, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.Fig9(bc, td, experiments.Fig9Config{})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runFig10(sc experiments.Scale) error {
	bc, _, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.Fig10(bc, experiments.Fig10Config{})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runAblationLambda(sc experiments.Scale) error {
	bc, _, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.LambdaAblation(bc, nil, sim.MacroOptions{})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runAblationBeta(sc experiments.Scale) error {
	bc, _, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.BetaNoise(bc, nil, sim.MacroOptions{})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runWelfare(sc experiments.Scale) error {
	bc, _, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.WelfareComparison(bc, experiments.WelfareConfig{})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func runMicroMacro(sc experiments.Scale) error {
	bc, _, err := cachedWorlds(sc)
	if err != nil {
		return err
	}
	res, err := experiments.MicroMacro(bc, nil, 0, sim.MacroOptions{})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}
