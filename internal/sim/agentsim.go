package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/transport"
	"repro/internal/vehicle"
)

// AgentSimConfig parameterizes the agent-based distributed simulation: one
// edge server per region, a population of heterogeneous vehicle agents per
// region, and the cloud coordinator running FDS — all exchanging real
// messages over the in-process transport.
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
	// Lambda is the FDS ratio step limit (default 0.1).
	Lambda float64
	// PrivacyWeightStd is the standard deviation of the per-vehicle privacy
	// weight around 1 (heterogeneity; default 0.2, clipped at 0).
	PrivacyWeightStd float64
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
	// RoundTimeout bounds each edge round (default 5s).
	RoundTimeout time.Duration
	// Fault, when non-nil, wraps every vehicle connection in the seeded
	// fault injector (drops, duplicates, delays, forced disconnects) and
	// runs the vehicle clients with reconnect + re-registration, so the
	// simulation exercises the runtime's degraded paths.
	Fault *transport.FaultConfig
	// Obs, when non-nil, is the shared observer every component of the run
	// (cloud, edges, fault injector, vehicle clients, FDS) reports through,
	// so one registry carries the whole system's series. Nil keeps each
	// component on its private registry.
	Obs *obs.Observer
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
	if c.Lambda <= 0 {
		c.Lambda = 0.1
	}
	if c.PrivacyWeightStd < 0 {
		c.PrivacyWeightStd = 0
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 5 * time.Second
	}
}

// AgentSimResult reports an agent-based run.
type AgentSimResult struct {
	// SharesTrace[t][i][k] is region i's observed decision distribution at
	// round t.
	SharesTrace [][][]float64
	// RatioTrace[t][i] is region i's sharing ratio during round t.
	RatioTrace [][]float64
	// Converged reports whether the cloud's view satisfied the field.
	Converged bool
	// Rounds actually executed.
	Rounds int
	// TotalDeliveredItems counts step-⑤ items across the run.
	TotalDeliveredItems int
	// TotalReceivedUtility sums the Table III value of desired delivered
	// data across all vehicles.
	TotalReceivedUtility float64
	// TotalSharedCost sums the privacy cost vehicles incurred by uploading.
	TotalSharedCost float64
}

// sampleDecision draws a 1-based decision index from a distribution.
func sampleDecision(rng *rand.Rand, shares []float64) (lattice.Decision, error) {
	if len(shares) == 0 {
		return 0, fmt.Errorf("sim: empty initial share vector")
	}
	r := rng.Float64()
	cum := 0.0
	for k, p := range shares {
		cum += p
		if r <= cum {
			return lattice.Decision(k + 1), nil
		}
	}
	return lattice.Decision(len(shares)), nil
}

// RunAgentSim executes the distributed agent-based simulation.
func (w *World) RunAgentSim(cfg AgentSimConfig) (*AgentSimResult, error) {
	cfg.fill()
	if cfg.Field == nil {
		return nil, fmt.Errorf("sim: agent simulation requires a desired field")
	}
	m := w.Model.M()

	// The cloud is wired through the shared scenario.NodeConfig layer — the
	// same constructor cpnode, cmd/scenario and the benchmark use. Round
	// deadline 0 keeps the in-process barrier waiting for every region.
	nc := scenario.Defaults(scenario.RoleCloud)
	nc.Model, nc.Field = w.Model, cfg.Field
	nc.Lambda, nc.X0 = cfg.Lambda, cfg.X0
	nc.RoundDeadline = 0
	nc.Obs = cfg.Obs
	if err := nc.Validate(); err != nil {
		return nil, err
	}
	cloudSrv, _, err := nc.NewCloud()
	if err != nil {
		return nil, err
	}
	defer cloudSrv.Close()

	net := transport.NewInprocNetwork()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var fault *transport.Fault
	if cfg.Fault != nil {
		fc := *cfg.Fault
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		fault = transport.NewFault(fc)
		if cfg.Obs != nil {
			fault.Instrument(cfg.Obs)
		}
	}
	stop := make(chan struct{})

	edges := make([]*edge.Server, m)
	listeners := make([]transport.Listener, m)
	for i := 0; i < m; i++ {
		l, err := net.Listen(fmt.Sprintf("edge-%d", i))
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		edges[i] = edge.NewServer(i, w.Payoffs.Lattice(), rng.Int63())
		if cfg.Obs != nil {
			edges[i].Instrument(cfg.Obs)
		}
		if cfg.EdgeShare != 0 {
			if err := edges[i].EnablePerception(cfg.EdgeShare); err != nil {
				return nil, err
			}
		}
		go edges[i].Serve(l)
	}
	teardown := func() {
		close(stop)
		for _, l := range listeners {
			_ = l.Close()
		}
		for _, e := range edges {
			e.Close()
		}
	}
	torndown := false
	defer func() {
		if !torndown {
			teardown()
		}
	}()

	dialEdge := func(i int) (transport.Conn, error) {
		c, err := net.Dial(fmt.Sprintf("edge-%d", i))
		if err != nil {
			return nil, err
		}
		if fault != nil {
			c = fault.WrapConn(c)
		}
		return c, nil
	}

	// Launch vehicle agents.
	var clientWG sync.WaitGroup
	clientErr := make(chan error, m*cfg.VehiclesPerRegion)
	agents := make([][]*vehicle.Agent, m)
	nextID := 1
	for i := 0; i < m; i++ {
		agents[i] = make([]*vehicle.Agent, cfg.VehiclesPerRegion)
		for v := 0; v < cfg.VehiclesPerRegion; v++ {
			weight := 1 + rng.NormFloat64()*cfg.PrivacyWeightStd
			if weight < 0 {
				weight = 0
			}
			prof := vehicle.Profile{
				ID:            nextID,
				Equipped:      sensor.MaskAll,
				Desired:       sensor.MaskAll,
				PrivacyWeight: weight,
				Beta:          w.Beta[i],
				Tau:           cfg.Tau,
			}
			nextID++
			a, err := vehicle.NewAgent(prof, w.Payoffs, rng.Int63())
			if err != nil {
				return nil, err
			}
			if cfg.InitialShares != nil {
				d, err := sampleDecision(rng, cfg.InitialShares[i])
				if err != nil {
					return nil, err
				}
				if err := a.SetDecision(d); err != nil {
					return nil, err
				}
			}
			agents[i][v] = a
			client := &vehicle.Client{Agent: a, Mu: cfg.Mu, Cap: sensor.TableIII(), Stop: stop, Obs: cfg.Obs}
			if fault != nil {
				// Lossy links: bound the registration wait and heal
				// dropped sessions by redialing.
				client.RegisterTimeout = 250 * time.Millisecond
				region := i
				dialer := &transport.Dialer{
					Dial:        func() (transport.Conn, error) { return dialEdge(region) },
					MaxAttempts: 20,
					BaseDelay:   2 * time.Millisecond,
					MaxDelay:    50 * time.Millisecond,
					Seed:        cfg.Seed + int64(prof.ID),
				}
				clientWG.Add(1)
				go func() {
					defer clientWG.Done()
					if err := client.RunWithReconnect(dialer); err != nil {
						clientErr <- err
					}
				}()
				continue
			}
			conn, err := dialEdge(i)
			if err != nil {
				return nil, err
			}
			clientWG.Add(1)
			go func() {
				defer clientWG.Done()
				if err := client.Run(conn); err != nil {
					clientErr <- err
				}
			}()
		}
	}

	// Wait for registrations.
	deadline := time.Now().Add(cfg.RoundTimeout)
	for _, e := range edges {
		for e.NumVehicles() < cfg.VehiclesPerRegion {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("sim: only %d/%d vehicles registered at edge %d",
					e.NumVehicles(), cfg.VehiclesPerRegion, e.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}

	res := &AgentSimResult{}
	x := make([]float64, m)
	for i := range x {
		x[i] = cfg.X0
	}

	for t := 0; t < cfg.Rounds; t++ {
		res.RatioTrace = append(res.RatioTrace, append([]float64(nil), x...))

		// Run every edge's round concurrently.
		censuses := make([][]int, m)
		errs := make([]error, m)
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				censuses[i], errs[i] = edges[i].RunRound(t, x[i], cfg.RoundTimeout)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sim: edge %d round %d: %w", i, t, err)
			}
		}

		shares := make([][]float64, m)
		for i := 0; i < m; i++ {
			shares[i] = edge.Shares(nil, censuses[i])
		}
		res.SharesTrace = append(res.SharesTrace, shares)
		res.Rounds = t + 1

		// Report to the cloud (concurrently: the cloud barriers per round).
		var reportWG sync.WaitGroup
		newX := make([]float64, m)
		reportErrs := make([]error, m)
		for i := 0; i < m; i++ {
			i := i
			reportWG.Add(1)
			go func() {
				defer reportWG.Done()
				newX[i], reportErrs[i] = cloudSrv.Submit(transport.Census{
					Edge:   i,
					Round:  t,
					Counts: censuses[i],
				})
			}()
		}
		reportWG.Wait()
		for i, err := range reportErrs {
			if err != nil {
				return nil, fmt.Errorf("sim: cloud report for edge %d: %w", i, err)
			}
		}
		x = newX

		if cloudSrv.Converged() {
			res.Converged = true
			break
		}
	}

	// Tear down clients before reading agent state: the client goroutines
	// own the agents until their connections close.
	teardown()
	torndown = true
	clientWG.Wait()

	for i := range agents {
		for _, a := range agents[i] {
			res.TotalDeliveredItems += a.ReceivedItems
			res.TotalReceivedUtility += a.ReceivedUtility
			res.TotalSharedCost += a.SharedCost
		}
	}
	select {
	case err := <-clientErr:
		return nil, fmt.Errorf("sim: vehicle client: %w", err)
	default:
	}
	return res, nil
}
