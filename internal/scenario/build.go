package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/gossip"
	"repro/internal/lattice"
	"repro/internal/policy"
	"repro/internal/sensor"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/vehicle"
)

// DemoTau is the choice temperature used by both the cloud's mean-field
// probe and the vehicle agents; a soft temperature keeps the demo's
// equilibria away from basin boundaries so small fleets track the mean
// field (see EXPERIMENTS.md on multistability).
const DemoTau = 0.25

// demoGraph couples every region to every other with a dominant
// intra-region frequency — the cpnode/demo topology.
type demoGraph struct{ m int }

func (g demoGraph) M() int { return g.m }
func (g demoGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.9
	}
	if g.m == 1 {
		return 0
	}
	return 0.1 / float64(g.m-1)
}
func (g demoGraph) Neighbors(i int) []int {
	var out []int
	for j := 0; j < g.m; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// DemoGraph returns the dense all-adjacent demo region graph.
func DemoGraph(m int) game.Graph { return demoGraph{m: m} }

// cycleGraph couples the regions in a sparse cycle: enough inter-region
// coupling that the fold is global, without the O(M^2) dense graph at load
// scale (the benchmark's flood topology).
type cycleGraph struct{ m int }

func (g cycleGraph) M() int { return g.m }
func (g cycleGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.6
	}
	if g.m == 1 {
		return 0
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	if d == 1 || d == g.m-1 {
		return 0.2
	}
	return 0
}
func (g cycleGraph) Neighbors(i int) []int {
	if g.m == 1 {
		return nil
	}
	return []int{(i + g.m - 1) % g.m, (i + 1) % g.m}
}

// CycleGraph returns the sparse ring region graph used at load scale.
func CycleGraph(m int) game.Graph { return cycleGraph{m: m} }

// GraphByName resolves a spec graph name ("demo" dense, "cycle" sparse).
func GraphByName(name string, m int) (game.Graph, error) {
	switch name {
	case "", "demo":
		return DemoGraph(m), nil
	case "cycle":
		return CycleGraph(m), nil
	default:
		return nil, fmt.Errorf("scenario: unknown region graph %q (want demo or cycle)", name)
	}
}

// BuildModel resolves the game model: a prebuilt Model wins, otherwise the
// paper payoffs over the configured graph with a uniform Beta.
func (c *NodeConfig) BuildModel() (*game.Model, error) {
	if c.Model != nil {
		return c.Model, nil
	}
	g := c.Graph
	if g == nil {
		g = DemoGraph(c.Regions)
	}
	betas := make([]float64, c.Regions)
	for i := range betas {
		betas[i] = c.Beta
	}
	return game.NewModel(lattice.PaperPayoffs(), g, betas)
}

// ProbeField derives the desired decision field as the regime reachable
// from a uniform mix at targetX (adiabatic continuation under the same
// Lambda FDS uses), banded by eps. This is the field cpnode's demo cloud
// steers toward when no explicit field spec is given.
func ProbeField(model *game.Model, m int, x0, targetX, eps, lambda, tau float64) (*policy.Field, error) {
	dyn, err := game.NewLogitDynamics(model, tau, 0.5)
	if err != nil {
		return nil, err
	}
	probe := game.NewUniformState(m, model.K(), x0)
	for ramping := true; ramping; {
		ramping = false
		for i := range probe.X {
			if probe.X[i]+lambda < targetX {
				probe.X[i] += lambda
				ramping = true
			} else {
				probe.X[i] = targetX
			}
		}
		if err := dyn.Step(probe); err != nil {
			return nil, err
		}
	}
	if _, err := dyn.Equilibrium(probe, 1e-9, 20000); err != nil {
		return nil, err
	}
	field := policy.NewFreeField(m, model.K())
	for i := range probe.P {
		for k, v := range probe.P[i] {
			lo, hi := v-eps, v+eps
			if lo < 0 {
				lo = 0
			}
			if hi > 1 {
				hi = 1
			}
			field.P[i][k].Lo, field.P[i][k].Hi = lo, hi
		}
	}
	return field, nil
}

// P1BandField is the load-harness field: the all-sharing decision P1 held
// in a band around target, every other share free.
func P1BandField(m, k int, target, band float64) (*policy.Field, error) {
	tv := make([]float64, k)
	tv[0] = target
	field, err := policy.NewUniformField(m, tv, band)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		for d := 1; d < k; d++ {
			field.P[i][d].Lo, field.P[i][d].Hi = 0, 1
		}
	}
	return field, nil
}

// ResolveField resolves the desired field in priority order: a prebuilt
// Field, then a FieldPath JSON spec, then the TargetX probe. The returned
// description names the source for operator logs.
func (c *NodeConfig) ResolveField(model *game.Model) (*policy.Field, string, error) {
	m := model.M()
	if c.Field != nil {
		if c.Field.M() != m || c.Field.K() != model.K() {
			return nil, "", fmt.Errorf("scenario: field is %dx%d, want %dx%d",
				c.Field.M(), c.Field.K(), m, model.K())
		}
		return c.Field, "explicit field", nil
	}
	if c.FieldPath != "" {
		fh, err := os.Open(c.FieldPath)
		if err != nil {
			return nil, "", err
		}
		field, err := policy.ReadFieldSpec(fh)
		fh.Close()
		if err != nil {
			return nil, "", err
		}
		if field.M() != m || field.K() != model.K() {
			return nil, "", fmt.Errorf("scenario: field spec is %dx%d, want %dx%d",
				field.M(), field.K(), m, model.K())
		}
		return field, fmt.Sprintf("field spec %s", c.FieldPath), nil
	}
	field, err := ProbeField(model, m, c.X0, c.TargetX, c.Eps, c.Lambda, c.Tau)
	if err != nil {
		return nil, "", err
	}
	return field, fmt.Sprintf("the x=%.2f regime (eps %.2f)", c.TargetX, c.Eps), nil
}

// NewCloud wires the full cloud/aggregator stack — model, desired field,
// FDS controller, coordinator — and applies the round deadline, rewind
// window, logger, observer, and durable state directory: the one cloud
// construction path of cpnode, the scenario runner, the agent simulation
// and the benchmark. The returned description names the field source.
func (c *NodeConfig) NewCloud() (*cloud.Server, string, error) {
	fds, what, err := c.newFDS()
	if err != nil {
		return nil, "", err
	}
	if c.Obs != nil {
		fds.Instrument(c.Obs)
	}
	srv, err := cloud.NewServer(fds, game.NewUniformState(fds.Field().M(), fds.Field().K(), c.X0))
	if err != nil {
		return nil, "", err
	}
	if c.Obs != nil {
		srv.Instrument(c.Obs)
	}
	srv.SetRoundDeadline(c.RoundDeadline)
	srv.SetFixedLag(c.FixedLag) // before Open: recovery rebuilds the rewind window
	if c.Logf != nil {
		srv.SetLogf(c.Logf)
	}
	if err := srv.Open(c.StateDir); err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, what, nil
}

// ParseGossipPeers parses an edge's "region=addr" gossip peer list
// ("1=127.0.0.1:7301,3=127.0.0.1:7303") into a map. The list names the
// other members of the edge's neighborhood, and may name the edge itself (a
// compiled spec lists the whole neighborhood, so a one-member neighborhood
// still has a list).
func ParseGossipPeers(s string) (map[int]string, error) {
	peers := map[int]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("scenario: gossip peer %q: want region=addr", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil {
			return nil, fmt.Errorf("scenario: gossip peer %q: bad region: %v", part, err)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("scenario: gossip peer %d listed twice", id)
		}
		if strings.TrimSpace(addr) == "" {
			return nil, fmt.Errorf("scenario: gossip peer %d has an empty address", id)
		}
		peers[id] = strings.TrimSpace(addr)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("scenario: gossip peer list %q names no peers", s)
	}
	return peers, nil
}

// NewGossipFold builds an edge's local fold core from the same model and
// desired field the cloud resolves, so both tiers fold one policy. The FDS
// is deliberately left uninstrumented: the gossip node's own gossip_*
// metrics cover the data plane, and per-edge FDS instruments would collide
// with the control plane's.
func (c *NodeConfig) NewGossipFold() (*cloud.Fold, string, error) {
	fds, what, err := c.newFDS()
	if err != nil {
		return nil, "", err
	}
	fold, err := cloud.NewFold(fds, game.NewUniformState(fds.Field().M(), fds.Field().K(), c.X0))
	if err != nil {
		return nil, "", err
	}
	return fold, what, nil
}

// newFDS builds the FDS controller over the resolved model and desired
// field; the description names the field source.
func (c *NodeConfig) newFDS() (*policy.FDS, string, error) {
	model, err := c.BuildModel()
	if err != nil {
		return nil, "", err
	}
	field, what, err := c.ResolveField(model)
	if err != nil {
		return nil, "", err
	}
	fds, err := policy.NewFDS(model, field, c.Lambda)
	return fds, what, err
}

// NewGossipNode wires one edge's gossip consensus participant: the local
// fold over the cloud's model and desired field, the neighborhood
// membership, and the peer/cloud dialers. members must include the edge
// itself. With a StateDir the node's journal is opened before returning, so
// a restarted edge resumes its fold and escalation backlog. The returned
// description names the field source.
func (c *NodeConfig) NewGossipNode(members []int, peerDial func(int) (transport.Conn, error), cloudDial func() (transport.Conn, error)) (*gossip.Node, string, error) {
	fold, what, err := c.NewGossipFold()
	if err != nil {
		return nil, "", err
	}
	node, err := gossip.NewNode(gossip.Config{
		Edge:          c.ID,
		Members:       members,
		Neighborhood:  c.GossipHood,
		Of:            c.GossipOf,
		EscalateEvery: c.GossipEvery,
		Deadline:      c.GossipDeadline,
		FailoverTTL:   c.GossipFailoverTTL,
		MaxBacklog:    c.GossipMaxBacklog,
		ReplyTimeout:  30 * time.Second,
		Fold:          fold,
		PeerDial:      peerDial,
		CloudDial:     cloudDial,
		Logf:          c.Logf,
	})
	if err != nil {
		return nil, "", err
	}
	if c.Obs != nil {
		node.Instrument(c.Obs)
	}
	if err := node.Open(c.StateDir); err != nil {
		node.Close()
		return nil, "", err
	}
	return node, what, nil
}

// GossipMembers resolves an edge's neighborhood member list from its parsed
// peer map plus the edge itself, sorted.
func GossipMembers(edgeID int, peers map[int]string) []int {
	members := make([]int, 0, len(peers)+1)
	members = append(members, edgeID)
	for id := range peers {
		if id != edgeID {
			members = append(members, id)
		}
	}
	sort.Ints(members)
	return members
}

// ShardTable builds the rendezvous ring over shards members and its
// region-ownership table.
func ShardTable(shards, regions int) (*shard.Table, error) {
	ring, err := shard.NewRing(shard.Names(shards))
	if err != nil {
		return nil, err
	}
	return shard.BuildTable(ring, regions)
}

// ShardRoute resolves the address an edge reports to. Unsharded (shards <=
// 1) it is the cloud address verbatim; sharded, cloudAddr lists every shard
// coordinator's address in ring order and the edge's region owner picks
// one.
func ShardRoute(cloudAddr string, shards, regions, edgeID int) (string, error) {
	addrs := strings.Split(cloudAddr, ",")
	if shards <= 1 {
		return addrs[0], nil
	}
	if len(addrs) != shards {
		return "", fmt.Errorf("scenario: cloud lists %d addresses, want one per shard (%d)", len(addrs), shards)
	}
	table, err := ShardTable(shards, regions)
	if err != nil {
		return "", err
	}
	owner, err := table.Owner(edgeID)
	if err != nil {
		return "", fmt.Errorf("scenario: routing edge %d: %w (is regions right?)", edgeID, err)
	}
	return strings.TrimSpace(addrs[owner]), nil
}

// NewShard wires one shard coordinator: the rendezvous ring assigns its
// region group, the upstream BatchLink dials the aggregation tier through
// dial, and the durable state directory is opened when set. Close the
// returned link after the coordinator.
func (c *NodeConfig) NewShard(dial func() (transport.Conn, error)) (*shard.Coordinator, *edge.BatchLink, error) {
	table, err := ShardTable(c.Shards, c.Regions)
	if err != nil {
		return nil, nil, err
	}
	owned := table.Regions(c.ShardID)
	if len(owned) == 0 {
		return nil, nil, fmt.Errorf("scenario: shard %d owns no regions in a %d-region/%d-shard ring (add regions or drop shards)",
			c.ShardID, c.Regions, c.Shards)
	}
	upstream := &edge.BatchLink{
		Shard:        c.ShardID,
		Dialer:       c.dialer(dial, c.Seed),
		ReplyTimeout: 30 * time.Second,
		Obs:          c.Obs,
	}
	coord, err := shard.NewCoordinator(shard.Config{
		ID:       c.ShardID,
		Regions:  owned,
		K:        lattice.NewPaper().K(),
		Deadline: c.ShardDeadline,
		Upstream: upstream,
		Logf:     c.Logf,
	})
	if err != nil {
		upstream.Close()
		return nil, nil, err
	}
	if c.Obs != nil {
		coord.Instrument(c.Obs)
	}
	if err := coord.Open(c.StateDir); err != nil {
		coord.Close()
		upstream.Close()
		return nil, nil, err
	}
	return coord, upstream, nil
}

// NewEdge builds the edge server over the paper lattice.
func (c *NodeConfig) NewEdge() *edge.Server {
	srv := edge.NewServer(c.ID, lattice.NewPaper(), c.Seed)
	if c.Obs != nil {
		srv.Instrument(c.Obs)
	}
	return srv
}

// NewCloudLink builds the edge's census link to its routed cloud or shard,
// dialing through dial. A reply is awaited for four round deadlines, and at
// least edgeRoundWait.
func (c *NodeConfig) NewCloudLink(dial func() (transport.Conn, error)) (*edge.CloudLink, error) {
	return &edge.CloudLink{
		Edge:         c.ID,
		Dialer:       c.dialer(dial, c.Seed),
		ReplyTimeout: max(edgeRoundWait, 4*c.RoundDeadline),
		Obs:          c.Obs,
	}, nil
}

// NewHeartbeat builds the edge's membership heartbeat on its own
// connection to its routed cloud or shard, dialing through dial (the census
// link's request/reply exchange would race with the lease acks).
func (c *NodeConfig) NewHeartbeat(dial func() (transport.Conn, error)) (*edge.Heartbeat, error) {
	return &edge.Heartbeat{
		Edge:   c.ID,
		Dialer: c.dialer(dial, c.Seed+1),
		TTL:    c.LeaseTTL,
		Obs:    c.Obs,
	}, nil
}

// dialer is the one retry schedule of every link a node dials — a shard's
// upstream, an edge's census link and heartbeat, a vehicle's session:
// RetryMax attempts per burst, backing off from 2 ms to 100 ms, steps that
// suit a scenario's in-process or loopback network and a LAN of cpnodes.
func (c *NodeConfig) dialer(dial func() (transport.Conn, error), seed int64) *transport.Dialer {
	return &transport.Dialer{Dial: dial, MaxAttempts: c.RetryMax,
		BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: seed}
}

// FleetSpec describes one homogeneous vehicle cohort wired by NewFleet.
type FleetSpec struct {
	N      int
	IDBase int
	// Equipped and Desired are the cohort's sensor masks (zero = all).
	Equipped, Desired sensor.Mask
	// Beta, Tau parameterize the agents' utility and choice temperature;
	// Mu is the per-round revision probability.
	Beta, Tau, Mu float64
	// PrivacyWeightStd spreads the per-vehicle privacy weight around 1
	// (clipped at 0).
	PrivacyWeightStd float64
	// Seed drives the per-vehicle seed derivation: every vehicle's RNG is
	// a splitmix of Seed and its ID, so fleet construction order never
	// changes an agent's behavior.
	Seed int64
	// RegisterTimeout bounds each client's registration ack wait (default
	// one second).
	RegisterTimeout time.Duration
	// Stop, when non-nil and closed, ends RunWithReconnect sessions.
	Stop <-chan struct{}
}

// FleetVehicle pairs one built agent with its client.
type FleetVehicle struct {
	Agent  *vehicle.Agent
	Client *vehicle.Client
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// per-vehicle seeds from (fleet seed, vehicle id).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// vehicleSeed derives a vehicle's private seed.
func vehicleSeed(fleetSeed int64, id int) int64 {
	return int64(splitmix64(uint64(fleetSeed)*0x9e3779b97f4a7c15 + uint64(id)))
}

// NewFleet builds fs.N vehicle agents and clients over payoffs. Each
// vehicle's RNG seed and privacy weight derive from (fs.Seed, vehicle id)
// alone, so two runs of the same spec produce identical fleets regardless
// of construction interleaving.
func (c *NodeConfig) NewFleet(fs FleetSpec) ([]*FleetVehicle, error) {
	payoffs := lattice.PaperPayoffs()
	if fs.Equipped == 0 {
		fs.Equipped = sensor.MaskAll
	}
	if fs.Desired == 0 {
		fs.Desired = sensor.MaskAll
	}
	if fs.Beta == 0 {
		fs.Beta = c.Beta
	}
	if fs.Tau == 0 {
		fs.Tau = DemoTau
	}
	if fs.Mu == 0 {
		fs.Mu = 0.5
	}
	if fs.RegisterTimeout == 0 {
		fs.RegisterTimeout = time.Second
	}
	out := make([]*FleetVehicle, 0, fs.N)
	for v := 0; v < fs.N; v++ {
		id := fs.IDBase + v
		seed := vehicleSeed(fs.Seed, id)
		weight := 1.0
		if fs.PrivacyWeightStd > 0 {
			// A cheap deterministic spread in [1-std, 1+std]: enough
			// heterogeneity for the cohort knob without coupling the fleet
			// to a shared normal stream.
			u := float64(splitmix64(uint64(seed))%(1<<20))/float64(1<<20)*2 - 1
			weight = 1 + u*fs.PrivacyWeightStd
			if weight < 0 {
				weight = 0
			}
		}
		prof := vehicle.Profile{
			ID:            id,
			Equipped:      fs.Equipped,
			Desired:       fs.Desired,
			PrivacyWeight: weight,
			Beta:          fs.Beta,
			Tau:           fs.Tau,
		}
		agent, err := vehicle.NewAgent(prof, payoffs, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, &FleetVehicle{
			Agent: agent,
			Client: &vehicle.Client{
				Agent:           agent,
				Mu:              fs.Mu,
				Cap:             sensor.TableIII(),
				RegisterTimeout: fs.RegisterTimeout,
				Stop:            fs.Stop,
				Obs:             c.Obs,
			},
		})
	}
	return out, nil
}

// TCPOptions returns the transport options every TCP endpoint this node
// opens shares; listeners pass them to accepted conns.
func (c *NodeConfig) TCPOptions(extra ...transport.TCPOption) []transport.TCPOption {
	var opts []transport.TCPOption
	if c.IOTimeout > 0 {
		opts = append(opts, transport.WithTimeout(c.IOTimeout))
	}
	return append(opts, extra...)
}

// NewFaultInjector builds the node's fault injector from its profile (nil
// when no faults are configured), instrumented on the node's observer.
func (c *NodeConfig) NewFaultInjector() *transport.Fault {
	if c.Fault == nil {
		return nil
	}
	fc := *c.Fault
	if fc.Seed == 0 {
		fc.Seed = c.Seed
	}
	fault := transport.NewFault(fc)
	if c.Obs != nil {
		fault.Instrument(c.Obs)
	}
	return fault
}

// DialFunc returns a dial closure for addr carrying the node's timeout and
// fault profile.
func (c *NodeConfig) DialFunc(addr string, extra ...transport.TCPOption) func() (transport.Conn, error) {
	fault := c.NewFaultInjector()
	return func() (transport.Conn, error) {
		conn, err := transport.DialTCP(addr, c.TCPOptions(extra...)...)
		if err != nil {
			return nil, err
		}
		if fault != nil {
			conn = fault.WrapConn(conn)
		}
		return conn, nil
	}
}

// Listener opens the node's TCP listener, wrapped in its fault injector.
func (c *NodeConfig) Listener() (transport.Listener, error) {
	l, err := transport.ListenTCP(c.Listen, c.TCPOptions()...)
	if err != nil {
		return nil, err
	}
	if fault := c.NewFaultInjector(); fault != nil {
		l = fault.WrapListener(l)
	}
	return l, nil
}
