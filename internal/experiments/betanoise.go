package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/game"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Beta-noise ablation: the paper's Section VII asks how "the approximation
// errors of utility coefficients might impact the convergence time of
// vehicles' decisions". Here the FDS controller plans with *perturbed*
// region coefficients beta_i * (1 + N(0, sigma)) while the population
// evolves under the true coefficients — exactly the model-mismatch the
// coarse-grained clustering of Step 2 introduces.

// BetaNoisePoint is one noise level's outcome.
type BetaNoisePoint struct {
	Sigma     float64
	Rounds    int
	Converged bool
	// Shortfall is the final worst distance to the field when unconverged.
	Shortfall float64
}

// BetaNoiseResult is the sweep outcome.
type BetaNoiseResult struct {
	Points []BetaNoisePoint
	// NoiseHurts reports the expected direction: the noisiest controller is
	// no faster than the exact one.
	NoiseHurts bool
}

// BetaNoise runs the sweep on one world.
func BetaNoise(w *sim.World, sigmas []float64, opts sim.MacroOptions) (*BetaNoiseResult, error) {
	if len(sigmas) == 0 {
		sigmas = []float64{0, 0.2, 0.5, 1.0}
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1500
	}
	if opts.Lambda == 0 {
		opts.Lambda = 0.1
	}
	start, err := w.EquilibriumAt(0.15, opts)
	if err != nil {
		return nil, err
	}
	targetEq, err := w.EquilibriumFrom(start, 0.8, opts.Lambda, opts)
	if err != nil {
		return nil, err
	}
	field, err := policy.BandField(targetEq.P, 0.04)
	if err != nil {
		return nil, err
	}

	res := &BetaNoiseResult{}
	for _, sigma := range sigmas {
		pt, err := betaNoiseRun(w, field, start, sigma, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: beta noise sigma=%.2f: %w", sigma, err)
		}
		res.Points = append(res.Points, *pt)
	}
	if n := len(res.Points); n >= 2 {
		first, last := res.Points[0], res.Points[n-1]
		res.NoiseHurts = !last.Converged || !first.Converged || last.Rounds >= first.Rounds
	}
	return res, nil
}

func betaNoiseRun(w *sim.World, field *policy.Field, start *game.State, sigma float64, opts sim.MacroOptions) (*BetaNoisePoint, error) {
	// Perturbed coefficients for the controller's model.
	rng := rand.New(rand.NewSource(4242))
	noisy := make([]float64, len(w.Beta))
	for i, b := range w.Beta {
		factor := 1 + rng.NormFloat64()*sigma
		if factor < 0.1 {
			factor = 0.1
		}
		noisy[i] = b * factor
	}
	noisyModel, err := game.NewModel(w.Payoffs, w.Graph, noisy)
	if err != nil {
		return nil, err
	}
	fds, err := policy.NewFDS(noisyModel, field, opts.Lambda)
	if err != nil {
		return nil, err
	}
	stepper, err := w.NewStepper(opts)
	if err != nil {
		return nil, err
	}

	// Manual closed loop: the controller plans on the noisy model, the
	// population steps under the true one. (FDS.Shape insists controller
	// and dynamics share a model, which is exactly the assumption this
	// ablation breaks.)
	s := start.Clone()
	pt := &BetaNoisePoint{Sigma: sigma}
	for t := 0; t < opts.MaxRounds; t++ {
		if ok, short := field.Converged(s); ok {
			pt.Converged = true
			pt.Rounds = t
			pt.Shortfall = short
			return pt, nil
		}
		if _, err := fds.UpdateRatios(s); err != nil {
			return nil, err
		}
		if err := stepper.Step(s); err != nil {
			return nil, err
		}
	}
	ok, short := field.Converged(s)
	pt.Converged = ok
	pt.Rounds = opts.MaxRounds
	pt.Shortfall = short
	return pt, nil
}

// Render prints the sweep.
func (r *BetaNoiseResult) Render(w io.Writer) error {
	header(w, "Ablation — utility-coefficient approximation error (future work §VII)")
	rows := [][]string{{"noise sigma", "FDS rounds", "converged", "final shortfall"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			metrics.FormatFloat(p.Sigma),
			fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%v", p.Converged),
			metrics.FormatFloat(p.Shortfall),
		})
	}
	if err := metrics.Table(w, rows); err != nil {
		return err
	}
	note(w, "controller with noisy coefficients is no faster than the exact one: %v", r.NoiseHurts)
	return nil
}
