package sim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// AgentSimConfig parameterizes the agent-based distributed simulation: one
// edge server per region, a population of vehicle agents per region, and
// the cloud coordinator running FDS — all exchanging real messages over the
// in-process transport.
type AgentSimConfig struct {
	// VehiclesPerRegion is the population size per region (default 40).
	VehiclesPerRegion int
	// Rounds bounds the simulation (default 200).
	Rounds int
	// Mu and Tau parameterize the agents' revision rule (defaults 0.5,
	// 0.15).
	Mu, Tau float64
	// X0 is the initial sharing ratio (default 0.5).
	X0 float64
	// Field is the desired decision field the cloud steers toward
	// (required).
	Field *policy.Field
	// InitialShares, when non-nil, gives per-region decision distributions
	// the agents' initial decisions are sampled from (matching a
	// macroscopic start state); nil draws uniformly.
	InitialShares [][]float64
	// EdgeShare, when non-zero, enables edge-side perception: every edge
	// server contributes road-side items of these modalities each round
	// (the paper's future-work direction; see internal/edge/perception.go).
	EdgeShare sensor.Mask
	// Seed drives all randomness.
	Seed int64
	// RoundTimeout bounds each edge round, at most 5s, and the wait for
	// each edge's registrations (default 5s).
	RoundTimeout time.Duration
	// Fault, when non-nil, wraps every vehicle uplink in the seeded fault
	// injector (drops, duplicates, delays, forced disconnects), so the
	// simulation exercises the runtime's degraded paths.
	Fault *transport.FaultConfig
}

func (c *AgentSimConfig) fill() {
	if c.VehiclesPerRegion <= 0 {
		c.VehiclesPerRegion = 40
	}
	if c.Rounds <= 0 {
		c.Rounds = 200
	}
	if c.Mu <= 0 {
		c.Mu = 0.5
	}
	if c.Tau <= 0 {
		c.Tau = 0.15
	}
	if c.X0 == 0 {
		c.X0 = 0.5
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 5 * time.Second
	}
}

// SettleRounds is how many rounds RunAgentSim keeps running past the first
// one after which the cloud's view satisfies the field, within Rounds: the
// final distribution is then a settled population's, not the one that has
// just entered the field's band.
const SettleRounds = 30

// AgentSimResult reports an agent-based run.
type AgentSimResult struct {
	// SharesTrace[t][i][k] is region i's observed decision distribution at
	// round t.
	SharesTrace [][][]float64
	// RatioTrace[t][i] is region i's sharing ratio during round t.
	RatioTrace [][]float64
	// Converged reports whether the cloud's view satisfied the field.
	Converged bool
	// Rounds actually executed: the config's Rounds, or SettleRounds past
	// convergence if that comes first.
	Rounds int
	// TotalDeliveredItems counts step-⑤ items across the run.
	TotalDeliveredItems int
	// TotalReceivedUtility sums the Table III value of desired delivered
	// data across all vehicles.
	TotalReceivedUtility float64
	// TotalSharedCost sums the privacy cost vehicles incurred by uploading.
	TotalSharedCost float64
}

// RunAgentSim executes the distributed agent-based simulation. Its cloud,
// edges and fleets start through scenario.NodeConfig on one in-process
// network, as the scenario runner's do; each round is every edge's
// Node.Round, and the edges report over their cloud links.
func (w *World) RunAgentSim(cfg AgentSimConfig) (*AgentSimResult, error) {
	cfg.fill()
	if cfg.Field == nil {
		return nil, fmt.Errorf("sim: agent simulation requires a desired field")
	}
	m, k := w.Model.M(), w.Model.K()
	if cfg.InitialShares != nil {
		if len(cfg.InitialShares) != m {
			return nil, fmt.Errorf("sim: %d initial share rows for %d regions", len(cfg.InitialShares), m)
		}
		for i, row := range cfg.InitialShares {
			if len(row) != k {
				return nil, fmt.Errorf("sim: region %d has %d initial shares, want %d", i, len(row), k)
			}
		}
	}

	// Round deadline 0 keeps the cloud's barrier waiting for every region.
	net := scenario.NewNetwork("inproc")
	cc := scenario.Defaults(scenario.RoleCloud)
	cc.Model, cc.Field, cc.X0 = w.Model, cfg.Field, cfg.X0
	cc.Listen, cc.RoundDeadline = "cloud", 0
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	cloud, err := cc.Start(net.Via(nil, nil))
	if err != nil {
		return nil, err
	}
	var edges, fleets []*scenario.Node
	stop := func() {
		for _, f := range fleets {
			f.Stop()
		}
		for _, e := range edges {
			e.Stop()
		}
		cloud.Stop()
	}
	defer stop()

	vc := scenario.Defaults(scenario.RoleVehicles)
	vc.Seed, vc.Fault = cfg.Seed, cfg.Fault
	fault := vc.NewFaultInjector() // one injector for every vehicle uplink
	fs := scenario.FleetSpec{N: cfg.VehiclesPerRegion, Tau: cfg.Tau, Mu: cfg.Mu, Seed: cfg.Seed}
	if fault != nil {
		// Lossy links: bound the registration wait, and redial longer.
		vc.RetryMax, fs.RegisterTimeout = 20, 250*time.Millisecond
	}
	for i := 0; i < m; i++ {
		ec := scenario.Defaults(scenario.RoleEdge)
		ec.ID, ec.Seed, ec.RoundDeadline = i, cfg.Seed+int64(i), cfg.RoundTimeout
		ec.Listen, ec.CloudAddr = fmt.Sprintf("edge-%d", i), "cloud"
		e, err := ec.Start(net.Via(nil, nil))
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
		if cfg.EdgeShare != 0 {
			if err := e.Edge.EnablePerception(cfg.EdgeShare); err != nil {
				return nil, err
			}
		}
		fc := *vc
		fc.EdgeAddr = ec.Listen
		fs.IDBase, fs.Beta = 1+i*cfg.VehiclesPerRegion, w.Beta[i]
		if cfg.InitialShares != nil {
			fs.InitialShares = cfg.InitialShares[i]
		}
		f, err := fc.StartFleet(fs, net.Via(fault, nil))
		if err != nil {
			return nil, err
		}
		fleets = append(fleets, f)
	}
	for _, e := range edges {
		if err := e.AwaitVehicles(cfg.VehiclesPerRegion, cfg.RoundTimeout); err != nil {
			return nil, err
		}
	}

	res := &AgentSimResult{}
	x := make([]float64, m)
	for i := range x {
		x[i] = cfg.X0
	}
	for t, end := 0, cfg.Rounds; t < end; t++ {
		res.RatioTrace = append(res.RatioTrace, append([]float64(nil), x...))
		shares, next, errs := make([][]float64, m), make([]float64, m), make([]error, m)
		var wg sync.WaitGroup
		for i, e := range edges {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var census []int
				census, next[i], errs[i] = e.Round(t, x[i])
				shares[i] = edge.Shares(nil, census)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sim: edge %d round %d: %w", i, t, err)
			}
		}
		res.SharesTrace = append(res.SharesTrace, shares)
		res.Rounds, x = t+1, next
		if !res.Converged && cloud.Cloud.Converged() {
			res.Converged, end = true, min(end, t+1+SettleRounds)
		}
	}

	// A session owns its agent until it ends.
	stop()
	for _, f := range fleets {
		if err := f.Wait(); err != nil {
			return nil, fmt.Errorf("sim: vehicle client: %w", err)
		}
		for _, fv := range f.Fleet {
			res.TotalDeliveredItems += fv.Agent.ReceivedItems
			res.TotalReceivedUtility += fv.Agent.ReceivedUtility
			res.TotalSharedCost += fv.Agent.SharedCost
		}
	}
	return res, nil
}
