package experiments

import (
	"fmt"
	"io"

	"repro/internal/game"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Welfare experiment: the paper's stated objective is "to minimize
// vehicles' information disclosure without compromising their perception
// accuracy". This experiment measures both objective terms — the
// population-average perception utility and privacy cost of Eq. 4 — for
// three policies from the same start: a low fixed ratio (private but
// blind), full sharing (accurate but exposed), and FDS steering to a
// moderate desired field. A healthy cooperation environment shows up as
// FDS sitting between the extremes: most of the utility at a fraction of
// the exposure.

// WelfarePoint is one policy's outcome.
type WelfarePoint struct {
	Name        string
	Utility     float64
	PrivacyCost float64
	Fitness     float64
	Converged   bool
	Rounds      int
}

// WelfareResult is the comparison.
type WelfareResult struct {
	Points []WelfarePoint
	// FDSBalances: FDS achieves at least half of the full-sharing utility
	// at no more than 85% of its privacy cost.
	FDSBalances bool
}

// WelfareConfig tunes the experiment.
type WelfareConfig struct {
	LowX, HighX, TargetX float64
	Eps                  float64
	Opts                 sim.MacroOptions
}

func (c *WelfareConfig) fill() {
	if c.LowX == 0 {
		c.LowX = 0.1
	}
	if c.HighX == 0 {
		c.HighX = 1.0
	}
	if c.TargetX == 0 {
		c.TargetX = 0.6
	}
	if c.Eps == 0 {
		c.Eps = 0.05
	}
	if c.Opts.MaxRounds == 0 {
		c.Opts.MaxRounds = 600
	}
	if c.Opts.X0 == 0 {
		c.Opts.X0 = 0.4
	}
}

// WelfareComparison runs the three policies.
func WelfareComparison(w *sim.World, cfg WelfareConfig) (*WelfareResult, error) {
	cfg.fill()
	start := game.NewUniformState(w.Model.M(), w.Model.K(), cfg.Opts.X0)

	lambda := cfg.Opts.Lambda
	if lambda == 0 {
		lambda = 0.1
	}
	targetEq, err := w.EquilibriumFrom(start, cfg.TargetX, lambda, cfg.Opts)
	if err != nil {
		return nil, err
	}
	field, err := policy.BandField(targetEq.P, cfg.Eps)
	if err != nil {
		return nil, err
	}

	endState := func(run *policy.ShapeResult) *game.State {
		return &game.State{
			P: run.Trajectory[len(run.Trajectory)-1],
			X: run.RatioTrace[len(run.RatioTrace)-1],
		}
	}
	measure := func(name string, run *policy.ShapeResult) (WelfarePoint, error) {
		wf, err := w.Model.Welfare(endState(run))
		if err != nil {
			return WelfarePoint{}, err
		}
		return WelfarePoint{
			Name:        name,
			Utility:     wf.Utility,
			PrivacyCost: wf.PrivacyCost,
			Fitness:     wf.Fitness,
			Converged:   run.Converged,
			Rounds:      run.Rounds,
		}, nil
	}

	res := &WelfareResult{}
	for _, fixed := range []struct {
		name string
		x    float64
	}{
		{fmt.Sprintf("fixed x=%.1f", cfg.LowX), cfg.LowX},
		{fmt.Sprintf("fixed x=%.1f", cfg.HighX), cfg.HighX},
	} {
		s := start.Clone()
		for i := range s.X {
			s.X[i] = fixed.x
		}
		run, err := w.RunFixed(s, field, cfg.Opts)
		if err != nil {
			return nil, err
		}
		pt, err := measure(fixed.name, run)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}

	fdsRun, err := w.RunFDS(start.Clone(), field, cfg.Opts)
	if err != nil {
		return nil, err
	}
	pt, err := measure("FDS", fdsRun.Shape)
	if err != nil {
		return nil, err
	}
	res.Points = append(res.Points, pt)

	low, high, fds := res.Points[0], res.Points[1], res.Points[2]
	_ = low
	if high.Utility > 0 && high.PrivacyCost > 0 {
		res.FDSBalances = fds.Utility >= 0.5*high.Utility && fds.PrivacyCost <= 0.85*high.PrivacyCost
	}
	return res, nil
}

// Render prints the comparison.
func (r *WelfareResult) Render(w io.Writer) error {
	header(w, "Welfare — perception utility vs privacy exposure (paper objective)")
	rows := [][]string{{"policy", "avg utility", "avg privacy cost", "avg fitness", "converged", "rounds"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Name,
			metrics.FormatFloat(p.Utility),
			metrics.FormatFloat(p.PrivacyCost),
			metrics.FormatFloat(p.Fitness),
			fmt.Sprintf("%v", p.Converged),
			fmt.Sprintf("%d", p.Rounds),
		})
	}
	if err := metrics.Table(w, rows); err != nil {
		return err
	}
	note(w, "FDS keeps >=50%% of full-sharing utility at <=85%% of its exposure: %v", r.FDSBalances)
	return nil
}
