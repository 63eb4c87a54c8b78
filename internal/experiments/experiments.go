// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V) plus the ablations DESIGN.md calls out. Each
// experiment is a function that computes the result from the library's
// public surfaces and renders it as text directly comparable with the
// printed version. cmd/repro runs them from the command line; bench_test.go
// wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Scale selects the experiment size.
type Scale int

// Scales.
const (
	// ScaleSmall is the laptop-size default: a reduced network and fleet
	// that preserves every qualitative result.
	ScaleSmall Scale = iota + 1
	// ScaleFull matches the paper's setup: Futian-scale network (~6k
	// segments), 20 regions, 100 edge servers, one-day trace.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// WorldConfig returns the world configuration for a scale and coefficient
// source.
func WorldConfig(s Scale, src sim.CoeffSource) sim.WorldConfig {
	var cfg sim.WorldConfig
	switch s {
	case ScaleFull:
		cfg = sim.PaperWorldConfig()
	default:
		cfg = sim.DefaultWorldConfig()
	}
	cfg.Source = src
	return cfg
}

// WorldsWith builds the BC- and TD-coefficient worlds for a scale. Both
// share the same network and trace seeds, so the two coefficient sources are
// computed over identical substrates, as in the paper; the pair is built
// through the caller-owned builder's artifact cache, so the network, trace
// and map-matching stages execute once, shared with any other worlds the
// caller builds (e.g. across scales or repeated experiment invocations). workers bounds the build's
// worker pools (0 means runtime.NumCPU()) without affecting the result.
func WorldsWith(b *sim.WorldBuilder, s Scale, workers int) (bc, td *sim.World, err error) {
	cfg := WorldConfig(s, sim.CoeffBC)
	cfg.Workers = workers
	bc, err = b.Build(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: building BC world: %w", err)
	}
	cfg = WorldConfig(s, sim.CoeffTD)
	cfg.Workers = workers
	td, err = b.Build(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: building TD world: %w", err)
	}
	return bc, td, nil
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}

// note prints an indented remark.
func note(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, "  · "+format+"\n", args...)
}
