package scenario

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
)

// RunOptions tune a scenario execution without editing the spec.
type RunOptions struct {
	// Seed, when non-nil, overrides the spec's seed.
	Seed *int64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// StateRoot is where durable runs keep checkpoints and journals
	// (default: a fresh temp dir, removed afterward).
	StateRoot string
	// Obs, when non-nil, is the observer the run instruments (so a caller
	// can serve /metrics while the scenario is in flight). The lossless
	// twin always gets its own registry, so twin counters never pollute
	// the run's.
	Obs *obs.Observer
}

// Verdict is the machine-readable outcome of one scenario run — the
// contract cmd/scenario prints as JSON and CI asserts against.
type Verdict struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Network  string `json:"network"`
	Regions  int    `json:"regions"`
	Shards   int    `json:"shards"`
	Vehicles int    `json:"vehicles"`
	Rounds   int    `json:"rounds"`

	// Converged reports whether the fold satisfied the desired field at
	// any round (small stochastic fleets wobble around the band, so the
	// final round alone would flap).
	Converged bool `json:"converged"`
	// ConvergedRound is the first round after which the fold satisfied the
	// desired field (-1 if it never did).
	ConvergedRound int `json:"converged_round"`
	// ConsensusStateHash is the CRC-32C witness of the published ratio
	// field, in %08x form — comparable across runs and to the
	// consensus_state_hash metric.
	ConsensusStateHash string  `json:"consensus_state_hash"`
	MeanSharingRatio   float64 `json:"mean_sharing_ratio"`

	DegradedRounds    uint64 `json:"degraded_rounds"`
	Rewinds           uint64 `json:"rewinds"`
	ReplayedRounds    uint64 `json:"replayed_rounds"`
	LateCensuses      uint64 `json:"late_censuses"`
	DuplicateCensuses uint64 `json:"duplicate_censuses"`
	Recoveries        uint64 `json:"durable_recoveries"`
	LeaseEvictions    uint64 `json:"lease_evictions"`
	FaultsInjected    uint64 `json:"faults_injected"`
	FailedReports     int    `json:"failed_reports"`

	// Gossip counters (zero unless topology.gossip is set). Recoveries
	// above already includes gossip journal recoveries.
	GossipLocalRounds        uint64 `json:"gossip_local_rounds,omitempty"`
	GossipDegradedRounds     uint64 `json:"gossip_degraded_rounds,omitempty"`
	GossipEscalations        uint64 `json:"gossip_escalations,omitempty"`
	GossipEscalationFailures uint64 `json:"gossip_escalation_failures,omitempty"`
	// GossipPartitionLocalRounds counts local rounds completed while the
	// cloud was partitioned away — the edge-autonomy witness.
	GossipPartitionLocalRounds uint64 `json:"gossip_rounds_during_partition,omitempty"`
	// GossipFailovers counts leadership promotions (leader-kill events or
	// organic lease expiries under failover_ttl).
	GossipFailovers uint64 `json:"gossip_failovers,omitempty"`
	// GossipBacklogDropped counts mirrored-backlog rounds shed past the
	// max_backlog cap.
	GossipBacklogDropped uint64 `json:"gossip_backlog_dropped,omitempty"`

	Welfare      WelfareReport `json:"welfare"`
	RoundLatency LatencyReport `json:"round_latency"`
	ElapsedMS    float64       `json:"elapsed_ms"`

	// Baseline is the lossless twin's outcome (verdict.compare_lossless).
	Baseline *BaselineReport `json:"baseline,omitempty"`

	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`
}

// WelfareReport aggregates the fleet's realized utility and privacy cost.
type WelfareReport struct {
	ReceivedUtility float64 `json:"received_utility"`
	SharedCost      float64 `json:"shared_cost"`
	// Net is utility minus cost — the welfare the consensus bought.
	Net            float64 `json:"net"`
	DeliveredItems int     `json:"delivered_items"`
}

// LatencyReport summarizes per-round wall time at the driver.
type LatencyReport struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// BaselineReport is the lossless twin summary.
type BaselineReport struct {
	ConsensusStateHash string        `json:"consensus_state_hash"`
	Converged          bool          `json:"converged"`
	Welfare            WelfareReport `json:"welfare"`
	// HashEqual reports whether the faulted run's fold came out
	// bit-identical to the twin's.
	HashEqual bool `json:"hash_equal"`
	// WelfareDelta is run minus baseline net welfare.
	WelfareDelta float64 `json:"welfare_delta"`
}

// Check is one verdict expectation's outcome.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Run executes the spec and returns its verdict. The error is reserved
// for infrastructure failures (bad spec, wiring errors); expectation
// failures land in Verdict.Checks with Pass=false.
func Run(spec *Spec, opts RunOptions) (*Verdict, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if opts.Seed != nil {
		seed = *opts.Seed
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	started := time.Now()
	res, err := runOnce(spec, seed, logf, opts.StateRoot, opts.Obs)
	if err != nil {
		return nil, err
	}

	v := &Verdict{
		Name:               spec.Name,
		Seed:               seed,
		Network:            spec.Topology.Network,
		Regions:            spec.Topology.Regions,
		Shards:             spec.Topology.Shards,
		Vehicles:           res.vehicles,
		Rounds:             spec.Rounds,
		Converged:          res.converged,
		ConvergedRound:     res.convergedRound,
		ConsensusStateHash: fmt.Sprintf("%08x", res.hash),
		MeanSharingRatio:   res.meanX,
		DegradedRounds:     res.counter("consensus_degraded_rounds_total"),
		Rewinds:            res.counter("consensus_rewinds_total"),
		ReplayedRounds:     res.counter("consensus_replayed_rounds_total"),
		LateCensuses:       res.counter("consensus_late_censuses_total"),
		DuplicateCensuses:  res.counter("consensus_duplicate_censuses_total"),
		Recoveries:         res.counter("durable_recoveries_total") + res.counter("gossip_recoveries_total"),
		LeaseEvictions:     res.counter("lease_evictions_total"),
		FailedReports:      res.failedReports,
		Welfare:            res.welfare,
		RoundLatency:       latencyReport(res.latencies),
	}
	v.GossipLocalRounds = res.counter("gossip_local_rounds_total")
	v.GossipDegradedRounds = res.counter("gossip_degraded_rounds_total")
	v.GossipEscalations = res.counter("gossip_digest_escalations_total")
	v.GossipEscalationFailures = res.counter("gossip_escalation_failures_total")
	v.GossipPartitionLocalRounds = res.gossipPartRounds
	v.GossipFailovers = res.counter("gossip_failovers_total")
	v.GossipBacklogDropped = res.counter("gossip_backlog_dropped_total")
	v.FaultsInjected = res.counter("transport_fault_dropped_total") +
		res.counter("transport_fault_duplicated_total") +
		res.counter("transport_fault_delayed_total") +
		res.counter("transport_fault_disconnects_total")

	if spec.Verdict.CompareLossless {
		twin := spec.LosslessTwin()
		logf("running lossless twin %q for the baseline", twin.Name)
		base, err := runOnce(twin, seed, logf, opts.StateRoot, nil)
		if err != nil {
			return nil, fmt.Errorf("lossless twin: %w", err)
		}
		v.Baseline = &BaselineReport{
			ConsensusStateHash: fmt.Sprintf("%08x", base.hash),
			Converged:          base.converged,
			Welfare:            base.welfare,
			HashEqual:          base.hash == res.hash,
			WelfareDelta:       res.welfare.Net - base.welfare.Net,
		}
	}

	v.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
	evaluateChecks(spec, v)
	return v, nil
}

// LosslessTwin strips faults, outages, and kills (keeping surges, which
// change the fleet itself) so the twin folds the unperturbed trajectory
// the faulted run is judged against.
func (s *Spec) LosslessTwin() *Spec {
	t := &Spec{}
	*t = *s
	t.Name = s.Name + "-lossless"
	t.Cohorts = append([]Cohort(nil), s.Cohorts...)
	for i := range t.Cohorts {
		t.Cohorts[i].Fault = nil
	}
	t.Links = nil
	t.Events = nil
	for _, e := range s.Events {
		if e.Action == "surge" {
			t.Events = append(t.Events, e)
		}
	}
	t.Verdict = VerdictSpec{}
	t.Cloud.RoundDeadline = 0 // full barriers: the ideal trajectory
	t.Cloud.Durable = false
	if s.Topology.Gossip != nil {
		g := *s.Topology.Gossip
		t.Topology.Gossip = &g // twin keeps the gossip data plane, unaliased
	}
	return t
}

func evaluateChecks(spec *Spec, v *Verdict) {
	vs := &spec.Verdict
	add := func(name string, ok bool, detail string) {
		v.Checks = append(v.Checks, Check{Name: name, OK: ok, Detail: detail})
	}
	if vs.RequireConverged {
		add("converged", v.Converged,
			fmt.Sprintf("converged=%v (round %d)", v.Converged, v.ConvergedRound))
	}
	if vs.RequireHashEqual {
		ok := v.Baseline != nil && v.Baseline.HashEqual
		detail := "no baseline run"
		if v.Baseline != nil {
			detail = fmt.Sprintf("run %s vs lossless %s", v.ConsensusStateHash, v.Baseline.ConsensusStateHash)
		}
		add("hash_equal_lossless", ok, detail)
	}
	if vs.MaxDegradedRounds != nil {
		add("max_degraded_rounds", v.DegradedRounds <= uint64(*vs.MaxDegradedRounds),
			fmt.Sprintf("%d degraded <= %d", v.DegradedRounds, *vs.MaxDegradedRounds))
	}
	if vs.MinRewinds > 0 {
		add("min_rewinds", v.Rewinds >= uint64(vs.MinRewinds),
			fmt.Sprintf("%d rewinds >= %d", v.Rewinds, vs.MinRewinds))
	}
	if vs.MinRecoveries > 0 {
		add("min_recoveries", v.Recoveries >= uint64(vs.MinRecoveries),
			fmt.Sprintf("%d recoveries >= %d", v.Recoveries, vs.MinRecoveries))
	}
	if vs.MinPartitionLocalRounds > 0 {
		add("min_partition_local_rounds", v.GossipPartitionLocalRounds >= uint64(vs.MinPartitionLocalRounds),
			fmt.Sprintf("%d local rounds during partition >= %d", v.GossipPartitionLocalRounds, vs.MinPartitionLocalRounds))
	}
	if vs.MinGossipFailovers > 0 {
		add("min_gossip_failovers", v.GossipFailovers >= uint64(vs.MinGossipFailovers),
			fmt.Sprintf("%d failovers >= %d", v.GossipFailovers, vs.MinGossipFailovers))
	}
	v.Pass = true
	for _, c := range v.Checks {
		if !c.OK {
			v.Pass = false
		}
	}
}

func latencyReport(lat []time.Duration) LatencyReport {
	if len(lat) == 0 {
		return LatencyReport{}
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pick := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i].Microseconds()) / 1000
	}
	return LatencyReport{P50MS: pick(0.5), P99MS: pick(0.99), MaxMS: pick(1)}
}

// --- one execution ---

type runResult struct {
	hash             uint32
	converged        bool
	convergedRound   int
	meanX            float64
	vehicles         int
	welfare          WelfareReport
	latencies        []time.Duration
	failedReports    int
	gossipPartRounds uint64
	snapshot         []obs.Point
}

func (r *runResult) counter(name string) uint64 {
	total := 0.0
	for _, p := range r.snapshot {
		if p.Name == name && p.Type == obs.TypeCounter {
			total += p.Value
		}
	}
	return uint64(total)
}

// counterNow sums a counter's live value across the registry — used by the
// driver to bracket partition windows while the run is still in flight.
func (r *runner) counterNow(name string) uint64 {
	total := 0.0
	for _, p := range r.o.Registry().Snapshot() {
		if p.Name == name && p.Type == obs.TypeCounter {
			total += p.Value
		}
	}
	return uint64(total)
}

// netw names listeners so components find each other on either transport,
// and so a restarted component can reclaim its name.
type netw struct {
	inproc *transport.InprocNetwork

	mu    sync.Mutex
	addrs map[string]string // tcp only: name -> current address
}

func newNetw(network string) *netw {
	if network == "inproc" {
		return &netw{inproc: transport.NewInprocNetwork()}
	}
	return &netw{addrs: map[string]string{}}
}

func (n *netw) listen(name string) (transport.Listener, error) {
	if n.inproc != nil {
		return n.inproc.Listen(name)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.addrs[name] = l.Addr()
	n.mu.Unlock()
	return l, nil
}

// dial resolves the name at call time, so dials started after a restart
// reach the component's new address.
func (n *netw) dial(name string) (transport.Conn, error) {
	if n.inproc != nil {
		return n.inproc.Dial(name)
	}
	n.mu.Lock()
	addr, ok := n.addrs[name]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("scenario: no listener named %q yet", name)
	}
	return transport.DialTCP(addr)
}

// edgeState is the driver's view of one region's edge.
type edgeState struct {
	id       int
	seed     int64
	srv      *edge.Server
	listener transport.Listener
	link     *edge.CloudLink // nil in gossip mode
	hbStop   chan struct{}   // per-life heartbeat stop (nil when no leases)
	gnode    *gossip.Node    // gossip mode: the edge's consensus participant
	gossipL  transport.Listener

	down   atomic.Bool // outage: silent toward the tier
	killed atomic.Bool

	mu         sync.Mutex
	x          float64
	corrX      float64 // latest pushed correction
	hasCorr    bool
	lastCounts []int // last completed census; re-seeds a restarted server's shares
	expected   int   // vehicles that should be registered
	percept    func(*edge.Server) error
}

// shardState is the driver's view of one shard coordinator.
type shardState struct {
	id       int
	coord    *shard.Coordinator
	upstream *edge.BatchLink
	listener transport.Listener
	stateDir string
	alive    bool
}

type runner struct {
	spec *Spec
	seed int64
	logf func(string, ...any)
	o    *obs.Observer
	net  *netw
	stop chan struct{}

	agg      *cloud.Server
	aggL     transport.Listener
	shards   []*shardState
	edges    []*edgeState
	shardTab *shard.Table

	edgeFaults  []*transport.Fault // per edge (nil entries)
	shardFault  *transport.Fault
	cohortFault map[string]*transport.Fault

	// Gossip data plane (nil/empty unless topology.gossip is set).
	gossipNC        *NodeConfig // template: model+field resolved once, cloned per edge
	hoods           [][]int     // neighborhood membership by rendezvous ring
	cloudPart       atomic.Bool // partition event in force: cloud dials fail fast
	partMark        uint64      // gossip_local_rounds_total when the partition began
	partLocalRounds uint64      // local rounds completed across partition windows

	fleetMu     sync.Mutex
	fleet       []*FleetVehicle
	clientWG    sync.WaitGroup
	nextID      int
	roundTmo    time.Duration // cloud reply wait per round
	edgeTmo     time.Duration // edge census-barrier wait per round
	failedRep   atomic.Int64
	stateDirs   string // run-scoped root for durable state
	removeState bool
}

func runOnce(spec *Spec, seed int64, logf func(string, ...any), stateRoot string, o *obs.Observer) (_ *runResult, err error) {
	if o == nil {
		o = obs.New()
	}
	r := &runner{
		spec:        spec,
		seed:        seed,
		logf:        logf,
		o:           o,
		stop:        make(chan struct{}),
		nextID:      1,
		cohortFault: map[string]*transport.Fault{},
	}
	r.roundTmo = 5 * time.Second
	if d := time.Duration(spec.Cloud.RoundDeadline); d > 0 && d*4 > r.roundTmo {
		r.roundTmo = d * 4
	}
	// With a round deadline set the cloud proceeds without stragglers, so an
	// edge gains nothing by holding its census barrier open longer than the
	// deadline: dropped vehicle reports would otherwise stall every round for
	// the full reply timeout. Without a deadline the barrier waits generously.
	r.edgeTmo = 5 * time.Second
	if d := time.Duration(spec.Cloud.RoundDeadline); d > 0 {
		r.edgeTmo = d
	}
	if spec.Cloud.Durable {
		root := stateRoot
		if root == "" {
			dir, err := os.MkdirTemp("", "scenario-"+spec.Name+"-")
			if err != nil {
				return nil, err
			}
			root = dir
			r.removeState = true
		}
		r.stateDirs = root
	}
	defer func() {
		r.teardown()
		if r.removeState {
			os.RemoveAll(r.stateDirs)
		}
	}()

	r.net = newNetw(spec.Topology.Network)
	if err := r.buildFaults(); err != nil {
		return nil, err
	}
	if err := r.buildTier(); err != nil {
		return nil, err
	}
	if err := r.buildEdges(); err != nil {
		return nil, err
	}
	if err := r.buildFleets(); err != nil {
		return nil, err
	}
	if err := r.awaitRegistrations(10 * time.Second); err != nil {
		return nil, err
	}
	return r.drive()
}

func (r *runner) buildFaults() error {
	m := r.spec.Topology.Regions
	r.edgeFaults = make([]*transport.Fault, m)
	for li := range r.spec.Links {
		l := &r.spec.Links[li]
		cfg := l.Fault.Config(r.seed + int64(100+li))
		f := transport.NewFault(*cfg)
		f.Instrument(r.o)
		switch l.Link {
		case "edge_cloud":
			regions := l.Regions
			if len(regions) == 0 {
				regions = allRegions(m)
			}
			for _, i := range regions {
				if r.edgeFaults[i] != nil {
					return fmt.Errorf("scenario: edge %d has two edge_cloud fault profiles", i)
				}
				r.edgeFaults[i] = f
			}
		case "shard_aggregator":
			r.shardFault = f
		}
	}
	for ci := range r.spec.Cohorts {
		co := &r.spec.Cohorts[ci]
		if co.Fault == nil {
			continue
		}
		f := transport.NewFault(*co.Fault.Config(r.seed + int64(200+ci)))
		f.Instrument(r.o)
		r.cohortFault[co.Name] = f
	}
	return nil
}

func allRegions(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// cloudConfig assembles the aggregation tier's NodeConfig from the spec.
func (r *runner) cloudConfig() (*NodeConfig, error) {
	s := r.spec
	role := RoleCloud
	if s.Topology.Shards > 1 {
		role = RoleAggregator
	}
	graph, err := GraphByName(s.Topology.Graph, s.Topology.Regions)
	if err != nil {
		return nil, err
	}
	nc := Defaults(role)
	nc.Seed = r.seed
	nc.Regions = s.Topology.Regions
	nc.Graph = graph
	nc.X0 = s.Cloud.X0
	nc.TargetX = s.Cloud.TargetX
	nc.Eps = s.Cloud.Eps
	nc.Lambda = s.Cloud.Lambda
	nc.Beta = s.Cloud.Beta
	nc.Tau = DemoTau
	nc.FixedLag = s.Cloud.FixedLag
	nc.RoundDeadline = time.Duration(s.Cloud.RoundDeadline)
	nc.Obs = r.o
	nc.Logf = func(format string, args ...any) { r.logf("cloud: "+format, args...) }
	if s.Cloud.Field != nil {
		field, err := s.Cloud.Field.Compile(s.Topology.Regions)
		if err != nil {
			return nil, err
		}
		nc.Field = field
	}
	if r.stateDirs != "" {
		nc.StateDir = r.stateDirs + "/aggregator"
	}
	return nc, nil
}

func (r *runner) buildTier() error {
	nc, err := r.cloudConfig()
	if err != nil {
		return err
	}
	srv, what, err := nc.NewCloud()
	if err != nil {
		return err
	}
	r.agg = srv
	r.logf("cloud up: %d regions, steering toward %s", r.spec.Topology.Regions, what)
	if r.aggL, err = r.net.listen("cloud"); err != nil {
		return err
	}
	go r.agg.Serve(r.aggL)

	s := r.spec
	if s.Topology.Shards > 1 {
		if r.shardTab, err = ShardTable(s.Topology.Shards, s.Topology.Regions); err != nil {
			return err
		}
		r.shards = make([]*shardState, s.Topology.Shards)
		for si := 0; si < s.Topology.Shards; si++ {
			st := &shardState{id: si}
			if r.stateDirs != "" {
				st.stateDir = fmt.Sprintf("%s/shard-%d", r.stateDirs, si)
			}
			// Rendezvous hashing can leave a shard with no regions; such a
			// shard is never dialed, so don't start it.
			if len(r.shardTab.Regions(si)) == 0 {
				r.logf("shard %d owns no regions in the %d-region ring; not started", si, s.Topology.Regions)
				r.shards[si] = st
				continue
			}
			if err := r.startShard(st); err != nil {
				return err
			}
			r.shards[si] = st
		}
	}
	return nil
}

func (r *runner) startShard(st *shardState) error {
	s := r.spec
	nc := Defaults(RoleShard)
	nc.Seed = r.seed + int64(10+st.id)
	nc.Regions = s.Topology.Regions
	nc.Shards = s.Topology.Shards
	nc.ShardID = st.id
	nc.ShardDeadline = time.Duration(s.Cloud.RoundDeadline)
	nc.StateDir = st.stateDir
	nc.Obs = r.o
	nc.Logf = func(format string, args ...any) { r.logf(fmt.Sprintf("shard %d: ", st.id)+format, args...) }
	dial := func() (transport.Conn, error) {
		c, err := r.net.dial("cloud")
		if err != nil {
			return nil, err
		}
		if r.shardFault != nil {
			c = r.shardFault.WrapConn(c)
		}
		return c, nil
	}
	coord, upstream, err := nc.NewShard(dial)
	if err != nil {
		return err
	}
	l, err := r.net.listen(fmt.Sprintf("shard-%d", st.id))
	if err != nil {
		coord.Close()
		upstream.Close()
		return err
	}
	st.coord, st.upstream, st.listener, st.alive = coord, upstream, l, true
	go coord.Serve(l)
	return nil
}

func (r *runner) stopShard(st *shardState) {
	if !st.alive {
		return
	}
	st.alive = false
	st.listener.Close()
	st.coord.Close()
	st.upstream.Close()
}

// upstreamName is the tier component edge i reports to.
func (r *runner) upstreamName(i int) string {
	if r.shardTab == nil {
		return "cloud"
	}
	owner, err := r.shardTab.Owner(i)
	if err != nil {
		return "cloud" // unreachable: validated shard/region bounds
	}
	return fmt.Sprintf("shard-%d", owner)
}

func (r *runner) buildEdges() error {
	s := r.spec
	m := s.Topology.Regions
	r.edges = make([]*edgeState, m)

	if g := s.Topology.Gossip; g != nil {
		hoods, err := gossip.Neighborhoods(m, g.Neighborhoods)
		if err != nil {
			return err
		}
		r.hoods = hoods
		graph, err := GraphByName(s.Topology.Graph, m)
		if err != nil {
			return err
		}
		nc := Defaults(RoleEdge)
		nc.Regions = m
		nc.Graph = graph
		nc.X0 = s.Cloud.X0
		nc.TargetX = s.Cloud.TargetX
		nc.Eps = s.Cloud.Eps
		nc.Lambda = s.Cloud.Lambda
		nc.Beta = s.Cloud.Beta
		nc.Tau = DemoTau
		if s.Cloud.Field != nil {
			field, err := s.Cloud.Field.Compile(m)
			if err != nil {
				return err
			}
			nc.Field = field
		}
		// Resolve the model and field once; every edge's local fold shares
		// them (the probe is the expensive part, and identical inputs would
		// just recompute the identical field per edge).
		model, err := nc.BuildModel()
		if err != nil {
			return err
		}
		field, what, err := nc.ResolveField(model)
		if err != nil {
			return err
		}
		nc.Model, nc.Field = model, field
		nc.GossipOf = len(hoods)
		nc.GossipEvery = g.EscalateEvery
		nc.GossipDeadline = time.Duration(g.Deadline)
		nc.GossipFailoverTTL = time.Duration(g.FailoverTTL)
		nc.GossipMaxBacklog = g.MaxBacklog
		r.gossipNC = nc
		r.logf("gossip data plane: %d neighborhoods over %d regions, escalate every %d rounds, steering toward %s",
			len(hoods), m, g.EscalateEvery, what)
	}

	// Union of rsu perception masks per region.
	percept := make([]func(*edge.Server) error, m)
	for ci := range s.Cohorts {
		co := &s.Cohorts[ci]
		if co.Kind != KindRSU {
			continue
		}
		mask, _, err := co.Masks()
		if err != nil {
			return err
		}
		for _, i := range cohortRegions(co, m) {
			prev := percept[i]
			percept[i] = func(e *edge.Server) error {
				if prev != nil {
					if err := prev(e); err != nil {
						return err
					}
				}
				return e.EnablePerception(mask)
			}
		}
	}

	for i := 0; i < m; i++ {
		es := &edgeState{
			id:      i,
			seed:    int64(splitmix64(uint64(r.seed)*0x9e3779b97f4a7c15 + 0xedbe + uint64(i))),
			x:       s.Cloud.X0,
			percept: percept[i],
		}
		if err := r.startEdge(es); err != nil {
			return err
		}
		r.edges[i] = es
	}
	return nil
}

// linkDial dials edge i's upstream through its fault profile; outages and
// kills make the dial fail so leases lapse while the region is silent.
func (r *runner) linkDial(es *edgeState) func() (transport.Conn, error) {
	return func() (transport.Conn, error) {
		if es.down.Load() || es.killed.Load() {
			return nil, fmt.Errorf("scenario: edge %d is offline", es.id)
		}
		c, err := r.net.dial(r.upstreamName(es.id))
		if err != nil {
			return nil, err
		}
		if f := r.edgeFaults[es.id]; f != nil {
			c = f.WrapConn(c)
		}
		return c, nil
	}
}

func (r *runner) startEdge(es *edgeState) error {
	nc := Defaults(RoleEdge)
	nc.ID = es.id
	nc.Seed = es.seed
	nc.Obs = r.o
	es.srv = nc.NewEdge()
	if es.percept != nil {
		if err := es.percept(es.srv); err != nil {
			return err
		}
	}
	es.mu.Lock()
	if es.lastCounts != nil {
		// A restart: resume the policy broadcast from the distribution the
		// dead server last published, not the uniform cold-start prior —
		// otherwise every vehicle's next revision diverges from a run that
		// never lost the server.
		es.srv.SetShares(edge.Shares(es.lastCounts))
	}
	es.mu.Unlock()
	l, err := r.net.listen(fmt.Sprintf("edge-%d", es.id))
	if err != nil {
		return err
	}
	es.listener = l
	go es.srv.Serve(l)

	if r.gossipNC != nil {
		return r.startGossip(es)
	}

	es.link = &edge.CloudLink{
		Edge: es.id,
		Dialer: &transport.Dialer{
			Dial:        r.linkDial(es),
			MaxAttempts: 10,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Seed:        es.seed + 1,
		},
		ReplyTimeout: r.roundTmo,
		Obs:          r.o,
		OnCorrection: func(round int, x float64) {
			es.mu.Lock()
			es.corrX, es.hasCorr = x, true
			es.mu.Unlock()
		},
	}

	if ttl := time.Duration(r.spec.Cloud.LeaseTTL); ttl > 0 {
		es.hbStop = make(chan struct{})
		hb := &edge.Heartbeat{
			Edge: es.id,
			Dialer: &transport.Dialer{
				Dial:        r.linkDial(es),
				MaxAttempts: 3,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        es.seed + 2,
			},
			TTL: ttl,
			Obs: r.o,
		}
		stop := es.hbStop
		go hb.Run(stop)
	}
	return nil
}

// startGossip attaches edge es to its neighborhood's gossip plane: a local
// fold cloned from the shared template, a listener peers dial, and a node
// that escalates digests to the cloud. Replaces the CloudLink/heartbeat
// wiring entirely — in gossip mode the edge never reports censuses direct.
func (r *runner) startGossip(es *edgeState) error {
	nc := *r.gossipNC
	nc.ID = es.id
	nc.Seed = es.seed
	nc.Obs = r.o
	nc.Logf = func(format string, args ...any) { r.logf(fmt.Sprintf("gossip %d: ", es.id)+format, args...) }
	h := gossip.HoodOf(r.hoods, es.id)
	if h < 0 {
		return fmt.Errorf("scenario: edge %d is in no gossip neighborhood", es.id)
	}
	nc.GossipHood = h
	if r.stateDirs != "" {
		nc.StateDir = fmt.Sprintf("%s/gossip-%d", r.stateDirs, es.id)
	}
	peerDial := func(member int) (transport.Conn, error) {
		// Peer links are the neighborhood LAN: outages and faults model the
		// edge→cloud uplink, not the local mesh.
		return r.net.dial(fmt.Sprintf("gossip-%d", member))
	}
	cloudDial := func() (transport.Conn, error) {
		if r.cloudPart.Load() {
			return nil, fmt.Errorf("scenario: cloud partitioned away")
		}
		if es.down.Load() || es.killed.Load() {
			return nil, fmt.Errorf("scenario: edge %d is offline", es.id)
		}
		c, err := r.net.dial("cloud")
		if err != nil {
			return nil, err
		}
		if f := r.edgeFaults[es.id]; f != nil {
			c = f.WrapConn(c)
		}
		return c, nil
	}
	gl, err := r.net.listen(fmt.Sprintf("gossip-%d", es.id))
	if err != nil {
		return err
	}
	node, _, err := nc.NewGossipNode(r.hoods[h], peerDial, cloudDial)
	if err != nil {
		gl.Close()
		return err
	}
	es.gnode, es.gossipL = node, gl
	go node.Serve(gl)
	return nil
}

func (r *runner) stopEdge(es *edgeState) {
	es.killed.Store(true)
	if es.hbStop != nil {
		close(es.hbStop)
		es.hbStop = nil
	}
	if es.link != nil {
		es.link.Close()
		es.link = nil
	}
	if es.gossipL != nil {
		es.gossipL.Close()
		es.gossipL = nil
	}
	if es.gnode != nil {
		es.gnode.Close()
		es.gnode = nil
	}
	es.listener.Close()
	es.srv.Close()
}

func cohortRegions(co *Cohort, m int) []int {
	if len(co.Regions) > 0 {
		return co.Regions
	}
	return allRegions(m)
}

func (r *runner) buildFleets() error {
	for ci := range r.spec.Cohorts {
		co := &r.spec.Cohorts[ci]
		if co.Kind == KindRSU {
			continue
		}
		if err := r.addCohortFleet(co, co.PerRegion); err != nil {
			return err
		}
	}
	return nil
}

// addCohortFleet attaches n vehicles of the cohort to each of its regions.
func (r *runner) addCohortFleet(co *Cohort, n int) error {
	m := r.spec.Topology.Regions
	equipped, desired, err := co.Masks()
	if err != nil {
		return err
	}
	fault := r.cohortFault[co.Name]
	nc := &NodeConfig{Obs: r.o}
	for _, region := range cohortRegions(co, m) {
		fs := FleetSpec{
			N:                n,
			IDBase:           r.nextID,
			Equipped:         equipped,
			Desired:          desired,
			Beta:             co.Beta,
			Tau:              co.Tau,
			Mu:               co.Mu,
			PrivacyWeightStd: co.PrivacyWeightStd,
			Seed:             r.seed,
			RegisterTimeout:  250 * time.Millisecond,
			Stop:             r.stop,
		}
		r.nextID += n
		vehicles, err := nc.NewFleet(fs)
		if err != nil {
			return err
		}
		es := r.edges[region]
		es.mu.Lock()
		es.expected += n
		es.mu.Unlock()
		for _, fv := range vehicles {
			r.fleetMu.Lock()
			r.fleet = append(r.fleet, fv)
			r.fleetMu.Unlock()
			dialer := &transport.Dialer{
				Dial: func() (transport.Conn, error) {
					c, err := r.net.dial(fmt.Sprintf("edge-%d", region))
					if err != nil {
						return nil, err
					}
					if fault != nil {
						c = fault.WrapConn(c)
					}
					return c, nil
				},
				MaxAttempts: 10000,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(fv.Agent.Profile.ID) + 0x5eed,
			}
			client := fv.Client
			r.clientWG.Add(1)
			go func() {
				defer r.clientWG.Done()
				// Client exits (nil or error) when stop closes or the
				// dialer's patience runs out mid-kill; either way the agent's
				// welfare tallies stay readable after clientWG drains.
				_ = client.RunWithReconnect(dialer)
			}()
		}
	}
	return nil
}

func (r *runner) awaitRegistrations(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, es := range r.edges {
		es.mu.Lock()
		want := es.expected
		es.mu.Unlock()
		for es.srv.NumVehicles() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("scenario: only %d/%d vehicles registered at edge %d",
					es.srv.NumVehicles(), want, es.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// timeline precomputes event triggers by round.
type timeline struct {
	outageStart  map[int][]int
	outageEnd    map[int][]int
	edgeKill     map[int][]int
	edgeRestart  map[int][]int
	shardKill    map[int][]int
	shardRestart map[int][]int
	leaderKill   map[int][]int // neighborhood indices, by round
	partStart    map[int]bool
	partEnd      map[int]bool
	surges       map[int][]Event
}

func buildTimeline(events []Event) (*timeline, error) {
	tl := &timeline{
		outageStart:  map[int][]int{},
		outageEnd:    map[int][]int{},
		edgeKill:     map[int][]int{},
		edgeRestart:  map[int][]int{},
		shardKill:    map[int][]int{},
		shardRestart: map[int][]int{},
		leaderKill:   map[int][]int{},
		partStart:    map[int]bool{},
		partEnd:      map[int]bool{},
		surges:       map[int][]Event{},
	}
	for _, e := range events {
		switch e.Action {
		case "outage":
			_, n, err := e.TargetKind()
			if err != nil {
				return nil, err
			}
			tl.outageStart[e.Round] = append(tl.outageStart[e.Round], n)
			if e.Until > 0 {
				tl.outageEnd[e.Until] = append(tl.outageEnd[e.Until], n)
			}
		case "kill":
			kind, n, err := e.TargetKind()
			if err != nil {
				return nil, err
			}
			if kind == "edge" {
				tl.edgeKill[e.Round] = append(tl.edgeKill[e.Round], n)
				if e.Until > 0 {
					tl.edgeRestart[e.Until] = append(tl.edgeRestart[e.Until], n)
				}
			} else {
				tl.shardKill[e.Round] = append(tl.shardKill[e.Round], n)
				if e.Until > 0 {
					tl.shardRestart[e.Until] = append(tl.shardRestart[e.Until], n)
				}
			}
		case "leader-kill":
			_, n, err := e.TargetKind()
			if err != nil {
				return nil, err
			}
			tl.leaderKill[e.Round] = append(tl.leaderKill[e.Round], n)
		case "partition":
			tl.partStart[e.Round] = true
			if e.Until > 0 {
				tl.partEnd[e.Until] = true
			}
		case "surge":
			tl.surges[e.Round] = append(tl.surges[e.Round], e)
		}
	}
	return tl, nil
}

func (r *runner) drive() (*runResult, error) {
	s := r.spec
	tl, err := buildTimeline(s.Events)
	if err != nil {
		return nil, err
	}
	res := &runResult{convergedRound: -1}

	for t := 0; t < s.Rounds; t++ {
		if err := r.applyEvents(tl, t); err != nil {
			return nil, err
		}

		roundStart := time.Now()
		var wg sync.WaitGroup
		for _, es := range r.edges {
			if es.down.Load() || es.killed.Load() {
				continue
			}
			es := es
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.edgeRound(es, t)
			}()
		}
		wg.Wait()
		res.latencies = append(res.latencies, time.Since(roundStart))

		if res.convergedRound < 0 && r.agg.Converged() {
			res.convergedRound = t
			r.logf("round %d: desired field satisfied", t)
		}
	}

	// The run is over. Heal any partition still in force and drain every
	// leader's escalation backlog, so the cloud's fold reflects all local
	// rounds before its hash is read — this is the reconcile-on-heal step
	// the partition verdicts compare against an always-connected run.
	if r.cloudPart.Load() {
		r.cloudPart.Store(false)
		r.partLocalRounds += r.counterNow("gossip_local_rounds_total") - r.partMark
		r.logf("end of run: cloud partition healed for reconciliation")
	}
	for _, es := range r.edges {
		if es.gnode != nil && !es.killed.Load() {
			if err := es.gnode.Flush(); err != nil {
				r.logf("gossip %d: final flush: %v", es.id, err)
			}
		}
	}
	res.gossipPartRounds = r.partLocalRounds

	// The run is over: read the fold before teardown. Converged means the
	// fold satisfied the desired field at some round — the revision
	// dynamics are stochastic, so a small fleet keeps wobbling around the
	// band after first touching it (RunAgentSim stops at that point; the
	// runner keeps going for the fixed-round trajectory).
	res.hash = r.agg.StateHash()
	res.converged = res.convergedRound >= 0 || r.agg.Converged()
	state := r.agg.State()
	for _, x := range state.X {
		res.meanX += x
	}
	res.meanX /= float64(len(state.X))
	res.failedReports = int(r.failedRep.Load())

	r.teardown()
	r.clientWG.Wait()

	r.fleetMu.Lock()
	res.vehicles = len(r.fleet)
	for _, fv := range r.fleet {
		res.welfare.ReceivedUtility += fv.Agent.ReceivedUtility
		res.welfare.SharedCost += fv.Agent.SharedCost
		res.welfare.DeliveredItems += fv.Agent.ReceivedItems
	}
	r.fleetMu.Unlock()
	res.welfare.Net = res.welfare.ReceivedUtility - res.welfare.SharedCost

	res.snapshot = r.o.Registry().Snapshot()
	return res, nil
}

// edgeRound runs one edge's vehicle round and reports the census upstream,
// adopting any pushed correction first.
func (r *runner) edgeRound(es *edgeState, t int) {
	es.mu.Lock()
	if es.hasCorr {
		es.x, es.hasCorr = es.corrX, false
	}
	x := es.x
	es.mu.Unlock()

	counts, err := es.srv.RunRound(t, x, r.edgeTmo)
	if err != nil {
		r.logf("edge %d round %d: %v", es.id, t, err)
		r.failedRep.Add(1)
		return
	}
	es.mu.Lock()
	es.lastCounts = counts
	es.mu.Unlock()
	if es.gnode != nil {
		// Gossip data plane: fold the neighborhood's censuses locally; the
		// new ratio comes from the local fold, never from the cloud, so the
		// census stream is identical whether or not the cloud is reachable.
		newX, err := es.gnode.LocalRound(t, counts)
		if err != nil {
			r.logf("gossip %d round %d: %v", es.id, t, err)
			r.failedRep.Add(1)
			return
		}
		es.mu.Lock()
		es.x = newX
		es.mu.Unlock()
		return
	}
	newX, err := es.link.Report(t, counts)
	if err != nil {
		// Upstream unreachable (kill window, exhausted retries): keep x and
		// catch up next round, like a partitioned cpnode edge.
		r.failedRep.Add(1)
		return
	}
	es.mu.Lock()
	if !es.hasCorr { // a correction racing in wins over the reply
		es.x = newX
	}
	es.mu.Unlock()
}

func (r *runner) applyEvents(tl *timeline, t int) error {
	if tl.partEnd[t] && r.cloudPart.Load() {
		r.cloudPart.Store(false)
		r.partLocalRounds += r.counterNow("gossip_local_rounds_total") - r.partMark
		r.logf("round %d: cloud partition healed", t)
	}
	if tl.partStart[t] && !r.cloudPart.Load() {
		r.cloudPart.Store(true)
		r.partMark = r.counterNow("gossip_local_rounds_total")
		r.logf("round %d: cloud partitioned away", t)
	}
	for _, region := range tl.outageEnd[t] {
		r.edges[region].down.Store(false)
		r.logf("round %d: region %d restored", t, region)
	}
	for _, region := range tl.outageStart[t] {
		r.edges[region].down.Store(true)
		r.logf("round %d: region %d outage", t, region)
	}
	for _, id := range tl.edgeRestart[t] {
		es := r.edges[id]
		es.killed.Store(false)
		if err := r.startEdge(es); err != nil {
			return fmt.Errorf("restarting edge %d: %w", id, err)
		}
		r.logf("round %d: edge %d restarted", t, id)
		r.awaitEdgeReregistration(es, 2*time.Second)
	}
	for _, id := range tl.edgeKill[t] {
		r.stopEdge(r.edges[id])
		r.logf("round %d: edge %d killed", t, id)
	}
	for _, h := range tl.leaderKill[t] {
		if err := r.killHoodLeader(h, t); err != nil {
			return err
		}
	}
	for _, id := range tl.shardRestart[t] {
		st := r.shards[id]
		if len(r.shardTab.Regions(id)) == 0 {
			continue // was never started: owns no regions
		}
		if err := r.startShard(st); err != nil {
			return fmt.Errorf("restarting shard %d: %w", id, err)
		}
		r.logf("round %d: shard %d restarted", t, id)
	}
	for _, id := range tl.shardKill[t] {
		r.stopShard(r.shards[id])
		r.logf("round %d: shard %d killed", t, id)
	}
	for _, e := range tl.surges[t] {
		for ci := range r.spec.Cohorts {
			co := &r.spec.Cohorts[ci]
			if co.Name == e.Cohort {
				if err := r.addCohortFleet(co, e.Count); err != nil {
					return fmt.Errorf("surge at round %d: %w", t, err)
				}
				r.logf("round %d: surge — %d extra %s vehicles per region", t, e.Count, co.Name)
			}
		}
		// Surged vehicles register asynchronously; give them a moment so
		// the next census sees most of them.
		r.awaitRegistrationsBrief(time.Second)
	}
	return nil
}

// killHoodLeader implements the leader-kill event: kill neighborhood h's
// current leader without warning (no flush — its unacked backlog dies with
// it), wait for the ring successor to notice the lapsed lease and promote,
// then restart the dead node from its journal and wait for it to adopt the
// successor's epoch as a follower. The whole sequence completes between
// round boundaries, so no census is lost and the fold trajectory stays
// bit-identical to an unperturbed run — the successor re-escalates the
// mirrored backlog and the cloud's per-hood watermark absorbs any overlap.
func (r *runner) killHoodLeader(h, t int) error {
	members := r.hoods[h]
	deadline := time.Now().Add(15 * time.Second)
	var victim *edgeState
	for victim == nil {
		for _, id := range members {
			es := r.edges[id]
			if es.gnode != nil && !es.killed.Load() && es.gnode.Leader() {
				victim = es
				break
			}
		}
		if victim == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("leader-kill at round %d: neighborhood %d has no confirmed leader", t, h)
			}
			time.Sleep(time.Millisecond)
		}
	}
	r.stopEdge(victim)
	r.logf("round %d: leader-kill — edge %d (neighborhood %d leader) killed", t, victim.id, h)

	var succ *edgeState
	for succ == nil {
		for _, id := range members {
			es := r.edges[id]
			if es != victim && es.gnode != nil && !es.killed.Load() && es.gnode.Leader() {
				succ = es
				break
			}
		}
		if succ == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("leader-kill at round %d: no successor promoted in neighborhood %d", t, h)
			}
			time.Sleep(time.Millisecond)
		}
	}
	succEpoch := succ.gnode.Epoch()
	r.logf("round %d: leader-kill — edge %d promoted at epoch %d", t, succ.id, succEpoch)

	victim.killed.Store(false)
	if err := r.startEdge(victim); err != nil {
		return fmt.Errorf("leader-kill at round %d: restarting edge %d: %w", t, victim.id, err)
	}
	for victim.gnode.Epoch() < succEpoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("leader-kill at round %d: edge %d did not rejoin as a follower", t, victim.id)
		}
		time.Sleep(time.Millisecond)
	}
	r.logf("round %d: leader-kill — edge %d rejoined as a follower at epoch %d", t, victim.id, victim.gnode.Epoch())
	r.awaitEdgeReregistration(victim, 5*time.Second)
	return nil
}

func (r *runner) awaitEdgeReregistration(es *edgeState, timeout time.Duration) {
	es.mu.Lock()
	want := es.expected
	es.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for es.srv.NumVehicles() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) awaitRegistrationsBrief(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, es := range r.edges {
		if es.down.Load() || es.killed.Load() {
			continue
		}
		es.mu.Lock()
		want := es.expected
		es.mu.Unlock()
		for es.srv.NumVehicles() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

func (r *runner) teardown() {
	select {
	case <-r.stop:
		return // already torn down
	default:
	}
	close(r.stop)
	for _, es := range r.edges {
		if es != nil && !es.killed.Load() {
			r.stopEdge(es)
		}
	}
	for _, st := range r.shards {
		if st != nil {
			r.stopShard(st)
		}
	}
	if r.aggL != nil {
		r.aggL.Close()
	}
	if r.agg != nil {
		r.agg.Close()
	}
}
