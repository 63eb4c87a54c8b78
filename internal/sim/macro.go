package sim

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/policy"
)

// DynamicKind selects the decision dynamic for macroscopic runs.
type DynamicKind int

// Dynamics.
const (
	// DynReplicator is the paper's replicator dynamics (Eq. 5).
	DynReplicator DynamicKind = iota + 1
	// DynLogit is the smoothed-best-response dynamic (mean field of the
	// vehicle agents).
	DynLogit
)

// MacroOptions tunes a macroscopic run.
type MacroOptions struct {
	// Dynamic selects the decision dynamic (default DynLogit).
	Dynamic DynamicKind
	// Eta is the replicator step size (default 1).
	Eta float64
	// Tau and Mu parameterize the logit dynamic (defaults 0.15, 0.5).
	Tau, Mu float64
	// X0 is the initial sharing ratio in every region (default 0.5).
	X0 float64
	// Lambda is the FDS per-round ratio step limit (default 0.1).
	Lambda float64
	// MaxRounds bounds the run (default 500).
	MaxRounds int
}

func (o *MacroOptions) fill() {
	if o.Dynamic == 0 {
		o.Dynamic = DynLogit
	}
	if o.Eta <= 0 {
		o.Eta = 1
	}
	if o.Tau <= 0 {
		o.Tau = 0.15
	}
	if o.Mu <= 0 {
		o.Mu = 0.5
	}
	if o.X0 == 0 {
		o.X0 = 0.5
	}
	if o.Lambda <= 0 {
		o.Lambda = 0.1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 500
	}
}

// NewStepper builds the selected dynamic over the world's model.
func (w *World) NewStepper(opts MacroOptions) (game.Stepper, error) {
	opts.fill()
	switch opts.Dynamic {
	case DynReplicator:
		return game.NewDynamics(w.Model, opts.Eta)
	case DynLogit:
		return game.NewLogitDynamics(w.Model, opts.Tau, opts.Mu)
	default:
		return nil, fmt.Errorf("sim: unknown dynamic %d", int(opts.Dynamic))
	}
}

// EquilibriumAt runs the logit dynamic at a fixed sharing ratio until it
// settles and returns the resulting state. This is how reachable desired
// decision fields are constructed for the experiments: the field the paper
// prescribes for a weather condition corresponds to the equilibrium of some
// reference ratio.
func (w *World) EquilibriumAt(x float64, opts MacroOptions) (*game.State, error) {
	opts.fill()
	d, err := game.NewLogitDynamics(w.Model, opts.Tau, opts.Mu)
	if err != nil {
		return nil, err
	}
	s := game.NewUniformState(w.Model.M(), w.Model.K(), x)
	if _, err := d.Equilibrium(s, 1e-9, 20000); err != nil {
		return nil, fmt.Errorf("sim: equilibrium at x=%f: %w", x, err)
	}
	return s, nil
}

// EquilibriumFrom performs adiabatic continuation: starting from an
// existing population state, it ramps every region's sharing ratio toward
// xTarget by at most lambda per round (the same constraint FDS operates
// under, Eq. 13) while the dynamics run, then equilibrates at the target
// ratio. The result is the attractor actually reachable from the given
// start — the decision game has multiple stable equilibria (e.g. a
// {lidar,radar}-coordination trap next to the full-sharing regime), so the
// branch depends on the path, and experiment targets must be taken from
// the reachable branch.
func (w *World) EquilibriumFrom(start *game.State, xTarget, lambda float64, opts MacroOptions) (*game.State, error) {
	opts.fill()
	if xTarget < 0 || xTarget > 1 {
		return nil, fmt.Errorf("sim: target ratio %f outside [0,1]", xTarget)
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("sim: lambda %f outside (0,1]", lambda)
	}
	d, err := game.NewLogitDynamics(w.Model, opts.Tau, opts.Mu)
	if err != nil {
		return nil, err
	}
	s := start.Clone()
	for ramping := true; ramping; {
		ramping = false
		for i := range s.X {
			diff := xTarget - s.X[i]
			switch {
			case diff > lambda:
				s.X[i] += lambda
				ramping = true
			case diff < -lambda:
				s.X[i] -= lambda
				ramping = true
			default:
				s.X[i] = xTarget
			}
		}
		if err := d.Step(s); err != nil {
			return nil, err
		}
	}
	if _, err := d.Equilibrium(s, 1e-9, 20000); err != nil {
		return nil, fmt.Errorf("sim: equilibrating at x=%f: %w", xTarget, err)
	}
	return s, nil
}

// MacroResult packages a macroscopic run.
type MacroResult struct {
	Shape *policy.ShapeResult
	// LowerBound is the analytic lower bound on the convergence time from
	// the same start (0 when not computed).
	LowerBound int
	// LowerBoundCapped reports whether the bound search hit its budget.
	LowerBoundCapped bool
}

// RunFDS executes a full FDS shaping run from the given start state toward
// field, and computes the analytic lower bound from the same start.
func (w *World) RunFDS(start *game.State, field *policy.Field, opts MacroOptions) (*MacroResult, error) {
	opts.fill()
	fds, err := policy.NewFDS(w.Model, field, opts.Lambda)
	if err != nil {
		return nil, err
	}
	stepper, err := w.NewStepper(opts)
	if err != nil {
		return nil, err
	}
	// Pick the bound matching the dynamic: the Prop. 4.1 envelope governs
	// the replicator, the revision-rate envelope governs the logit dynamic.
	var (
		lb     int
		capped bool
	)
	switch opts.Dynamic {
	case DynLogit:
		lb, capped, err = policy.RevisionLowerBound(w.Model, field, start, opts.Mu, opts.Tau, opts.Lambda, opts.MaxRounds)
	default:
		lb, capped, err = policy.AnalyticLowerBound(w.Model, field, start, opts.Lambda, opts.MaxRounds)
	}
	if err != nil {
		return nil, err
	}
	shape, err := fds.Shape(stepper, start, opts.MaxRounds)
	if err != nil {
		return nil, err
	}
	return &MacroResult{Shape: shape, LowerBound: lb, LowerBoundCapped: capped}, nil
}

// RunFixed executes the fixed-ratio baseline from the given start state.
func (w *World) RunFixed(start *game.State, field *policy.Field, opts MacroOptions) (*policy.ShapeResult, error) {
	opts.fill()
	stepper, err := w.NewStepper(opts)
	if err != nil {
		return nil, err
	}
	return policy.RunFixedRatio(stepper, start, field, opts.MaxRounds)
}
