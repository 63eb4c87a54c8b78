package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Fig9Point is one bar of Fig. 9: the FDS convergence time for a tolerance
// eps, together with the lower bound and the resulting approximation ratio.
type Fig9Point struct {
	Eps        float64
	FDSRounds  int
	Converged  bool
	LowerBound int
	LBCapped   bool
	Ratio      float64
}

// Fig9Result reproduces Fig. 9(a)/(b): convergence time of FDS as the
// acceptable error eps grows from 0.01 to 0.05, for BC- and TD-derived
// utility coefficients, against the lower bound of the relaxed problem.
type Fig9Result struct {
	Sources []Fig9Source
	// MonotoneNonIncreasing reports the paper's headline: convergence time
	// shrinks as eps loosens (checked per source).
	MonotoneNonIncreasing bool
	// MaxRatio is the worst approximation ratio over converged points
	// (paper: 1.15 for BC, 1.08 for TD).
	MaxRatio float64
}

// Fig9Source is one coefficient source's sweep.
type Fig9Source struct {
	Name   string
	Points []Fig9Point
}

// Fig9Config tunes the experiment.
type Fig9Config struct {
	// EpsValues to sweep (default 0.01..0.05).
	EpsValues []float64
	// StartX and TargetX are the initial and desired sharing regimes.
	StartX, TargetX float64
	// Opts are the macroscopic run options.
	Opts sim.MacroOptions
}

func (c *Fig9Config) fill() {
	if len(c.EpsValues) == 0 {
		c.EpsValues = []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	}
	if c.StartX == 0 {
		c.StartX = 0.15
	}
	if c.TargetX == 0 {
		c.TargetX = 0.8
	}
	if c.Opts.MaxRounds == 0 {
		c.Opts.MaxRounds = 2000
	}
	if c.Opts.Lambda == 0 {
		c.Opts.Lambda = 0.05
	}
}

// Fig9 runs the convergence-time sweep on both worlds.
func Fig9(bc, td *sim.World, cfg Fig9Config) (*Fig9Result, error) {
	cfg.fill()
	res := &Fig9Result{MonotoneNonIncreasing: true}
	for _, src := range []struct {
		name  string
		world *sim.World
	}{{"BC", bc}, {"TD", td}} {
		points, err := fig9Sweep(src.world, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig9 %s sweep: %w", src.name, err)
		}
		res.Sources = append(res.Sources, Fig9Source{Name: src.name, Points: points})
		for i := 1; i < len(points); i++ {
			if points[i].Converged && points[i-1].Converged && points[i].FDSRounds > points[i-1].FDSRounds {
				res.MonotoneNonIncreasing = false
			}
		}
		for _, p := range points {
			if p.Converged && !p.LBCapped && p.Ratio > res.MaxRatio {
				res.MaxRatio = p.Ratio
			}
		}
	}
	return res, nil
}

// fig9Sweep runs FDS once under the tightest tolerance and then measures,
// on that single deployed trajectory, the convergence time for every eps —
// the paper's plot semantics ("the time duration that p converges to the
// interval [p* - eps, p* + eps]"), which is monotone in eps by
// construction. The lower bound is recomputed per eps.
func fig9Sweep(w *sim.World, cfg Fig9Config) ([]Fig9Point, error) {
	opts := cfg.Opts
	start, err := w.EquilibriumAt(cfg.StartX, opts)
	if err != nil {
		return nil, err
	}
	targetEq, err := w.EquilibriumFrom(start, cfg.TargetX, opts.Lambda, opts)
	if err != nil {
		return nil, err
	}

	minEps := cfg.EpsValues[0]
	for _, e := range cfg.EpsValues {
		if e < minEps {
			minEps = e
		}
	}
	refField, err := policy.BandField(targetEq.P, minEps)
	if err != nil {
		return nil, err
	}
	run, err := w.RunFDS(start.Clone(), refField, opts)
	if err != nil {
		return nil, err
	}
	traj := run.Shape.Trajectory

	// Per-(region, decision) share series across the run.
	m, k := w.Model.M(), w.Model.K()
	series := make([][]metrics.Series, m)
	for i := 0; i < m; i++ {
		series[i] = make([]metrics.Series, k)
		for d := 0; d < k; d++ {
			for _, snap := range traj {
				series[i][d].Append(snap[i][d])
			}
		}
	}

	points := make([]Fig9Point, 0, len(cfg.EpsValues))
	for _, eps := range cfg.EpsValues {
		pt := Fig9Point{Eps: eps, Converged: true}
		for i := 0; i < m && pt.Converged; i++ {
			for d := 0; d < k; d++ {
				r, ok := series[i][d].ConvergenceRound(targetEq.P[i][d], eps)
				if !ok {
					pt.Converged = false
					pt.FDSRounds = len(traj)
					break
				}
				if r > pt.FDSRounds {
					pt.FDSRounds = r
				}
			}
		}

		field, err := policy.BandField(targetEq.P, eps)
		if err != nil {
			return nil, err
		}
		mu, tau := opts.Mu, opts.Tau
		if mu <= 0 {
			mu = 0.5
		}
		if tau <= 0 {
			tau = 0.15
		}
		lb, capped, err := policy.RevisionLowerBound(w.Model, field, start, mu, tau, opts.Lambda, opts.MaxRounds)
		if err != nil {
			return nil, err
		}
		pt.LowerBound, pt.LBCapped = lb, capped
		if pt.Converged && !pt.LBCapped {
			pt.Ratio = metrics.ApproximationRatio(pt.FDSRounds, pt.LowerBound)
		}
		points = append(points, pt)
	}
	return points, nil
}

// Render prints the sweep.
func (r *Fig9Result) Render(w io.Writer) error {
	header(w, "Fig. 9 — convergence time of FDS vs acceptable error eps")
	for _, src := range r.Sources {
		fmt.Fprintf(w, "source %s:\n", src.Name)
		rows := [][]string{{"eps", "FDS rounds", "converged", "lower bound", "approx ratio"}}
		labels := make([]string, 0, len(src.Points))
		values := make([]float64, 0, len(src.Points))
		for _, p := range src.Points {
			ratio := "-"
			if p.Converged && !p.LBCapped {
				ratio = metrics.FormatFloat(p.Ratio)
			}
			rows = append(rows, []string{
				metrics.FormatFloat(p.Eps),
				fmt.Sprintf("%d", p.FDSRounds),
				fmt.Sprintf("%v", p.Converged),
				fmt.Sprintf("%d", p.LowerBound),
				ratio,
			})
			labels = append(labels, fmt.Sprintf("eps=%.2f", p.Eps))
			values = append(values, float64(p.FDSRounds))
		}
		if err := metrics.Table(w, rows); err != nil {
			return err
		}
		if err := metrics.BarChart(w, labels, values, 40); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	note(w, "paper: convergence time decreases as eps loosens — reproduced: %v", r.MonotoneNonIncreasing)
	note(w, "paper: approximation ratios within [1.00, 1.15] (BC) and [1.00, 1.08] (TD); measured max ratio %.2f "+
		"(our relaxation bound is evaluated on a differently calibrated instance; see EXPERIMENTS.md)", r.MaxRatio)
	return nil
}
