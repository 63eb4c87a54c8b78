package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/sensor"
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

func (r *runResult) counter(name string) uint64 { return sumCounter(r.snapshot, name) }

// counterNow sums a counter's live value across the registry — used by the
// driver to bracket partition windows while the run is still in flight.
func (r *runner) counterNow(name string) uint64 { return sumCounter(r.o.Registry().Snapshot(), name) }

func sumCounter(points []obs.Point, name string) uint64 {
	total := 0.0
	for _, p := range points {
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
	nc       *NodeConfig
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
	lastCounts []int       // last completed census; re-seeds a restarted server's shares
	expected   int         // vehicles that should be registered
	percept    sensor.Mask // road-side perception (0 = none)
}

// shardState is the driver's view of one shard coordinator.
type shardState struct {
	nc       *NodeConfig // nil: the member owns no regions and never starts
	coord    *shard.Coordinator
	upstream *edge.BatchLink
	listener transport.Listener
	alive    bool
}

type runner struct {
	spec *Spec
	seed int64
	logf func(string, ...any)
	o    *obs.Observer
	net  *netw
	stop chan struct{}

	agg    *cloud.Server
	aggL   transport.Listener
	shards []*shardState
	edges  []*edgeState

	edgeFaults  []*transport.Fault // per edge (nil entries)
	shardFault  *transport.Fault
	cohortFault map[string]*transport.Fault

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

// runOnce compiles the spec for seed and starts exactly the nodes of the
// plan: the cloud or aggregator, the shards, the edges, the fleets.
func runOnce(spec *Spec, seed int64, logf func(string, ...any), stateRoot string, o *obs.Observer) (_ *runResult, err error) {
	if o == nil {
		o = obs.New()
	}
	p, err := spec.compile(seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		spec:        spec,
		seed:        seed,
		logf:        logf,
		o:           o,
		stop:        make(chan struct{}),
		nextID:      p.nextID,
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
	r.buildFaults()
	if err := r.start(p); err != nil {
		return nil, err
	}
	if err := r.awaitVehicles(10 * time.Second); err != nil {
		return nil, err
	}
	return r.drive()
}

func (r *runner) buildFaults() {
	at, _ := r.spec.edgeLinks() // validated: no region has two profiles
	r.edgeFaults = make([]*transport.Fault, len(at))
	links := make([]*transport.Fault, len(r.spec.Links))
	for li := range r.spec.Links {
		l := &r.spec.Links[li]
		links[li] = transport.NewFault(*l.Fault.Config(r.seed + int64(100+li)))
		links[li].Instrument(r.o)
		if l.Link == "shard_aggregator" {
			r.shardFault = links[li]
		}
	}
	for i, li := range at {
		if li >= 0 {
			r.edgeFaults[i] = links[li]
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
}

// start resolves the model and desired field once, for the cloud and every
// gossip edge, and starts the plan's nodes.
func (r *runner) start(p *plan) error {
	model, err := p.cloud.BuildModel()
	if err != nil {
		return err
	}
	field, what, err := p.cloud.ResolveField(model)
	if err != nil {
		return err
	}
	// runScoped gives a node the run's observer, a log prefix, and its state
	// directory under the run's root.
	runScoped := func(nc *NodeConfig, prefix string) {
		nc.Obs = r.o
		nc.Logf = func(format string, args ...any) { r.logf(prefix+format, args...) }
		if nc.StateDir != "" {
			nc.StateDir = filepath.Join(r.stateDirs, nc.StateDir)
		}
	}

	nc := p.cloud
	nc.Model, nc.Field = model, field
	runScoped(nc, "cloud: ")
	if r.agg, _, err = nc.NewCloud(); err != nil {
		return err
	}
	r.logf("cloud up: %d regions, steering toward %s", nc.Regions, what)
	if r.aggL, err = r.net.listen(nc.Listen); err != nil {
		return err
	}
	go r.agg.Serve(r.aggL)

	r.shards = make([]*shardState, len(p.shards))
	for i, nc := range p.shards {
		r.shards[i] = &shardState{nc: nc}
		if nc == nil {
			r.logf("shard %d owns no regions in the %d-region ring; not started", i, len(p.edges))
			continue
		}
		runScoped(nc, fmt.Sprintf("shard %d: ", i))
		if err := r.startShard(r.shards[i]); err != nil {
			return err
		}
	}

	if g := r.spec.Topology.Gossip; g != nil {
		r.logf("gossip data plane: %d neighborhoods over %d regions, escalate every %d rounds, steering toward %s",
			p.edges[0].GossipOf, len(p.edges), g.EscalateEvery, what)
	}
	r.edges = make([]*edgeState, len(p.edges))
	for i, nc := range p.edges {
		es := &edgeState{nc: nc, x: nc.X0, expected: nc.Vehicles}
		if nc.GossipPeers != "" {
			nc.Model, nc.Field = model, field
		}
		runScoped(nc, fmt.Sprintf("edge %d: ", i))
		r.edges[i] = es
	}
	// The last rsu cohort covering a region sets its road-side perception.
	for ci := range r.spec.Cohorts {
		if co := &r.spec.Cohorts[ci]; co.Kind == KindRSU {
			mask, _, _ := co.Masks() // validated
			for _, i := range cohortRegions(co, len(r.edges)) {
				r.edges[i].percept = mask
			}
		}
	}
	for _, es := range r.edges {
		if err := r.startEdge(es); err != nil {
			return err
		}
	}
	for _, f := range p.fleets {
		if err := r.startFleet(f); err != nil {
			return err
		}
	}
	return nil
}

// dialVia dials the listener named addr through fault (nil: none).
func (r *runner) dialVia(addr string, fault *transport.Fault) func() (transport.Conn, error) {
	return func() (transport.Conn, error) {
		c, err := r.net.dial(addr)
		if err != nil {
			return nil, err
		}
		if fault != nil {
			c = fault.WrapConn(c)
		}
		return c, nil
	}
}

func (r *runner) startShard(st *shardState) error {
	nc := st.nc
	coord, upstream, err := nc.NewShard(r.dialVia(nc.AggregatorAddr, r.shardFault))
	if err != nil {
		return err
	}
	l, err := r.net.listen(nc.Listen)
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

// upDial dials edge es's upstream, named by addr, through its fault profile;
// outages and kills make the dial fail so leases lapse while the region is
// silent, and a partition (gossip topologies only) fails every cloud dial.
func (r *runner) upDial(es *edgeState, addr string) func() (transport.Conn, error) {
	dial := r.dialVia(addr, r.edgeFaults[es.nc.ID])
	return func() (transport.Conn, error) {
		if r.cloudPart.Load() {
			return nil, fmt.Errorf("scenario: cloud partitioned away")
		}
		if es.down.Load() || es.killed.Load() {
			return nil, fmt.Errorf("scenario: edge %d is offline", es.nc.ID)
		}
		return dial()
	}
}

func (r *runner) startEdge(es *edgeState) error {
	nc := es.nc
	es.srv = nc.NewEdge()
	if es.percept != 0 {
		if err := es.srv.EnablePerception(es.percept); err != nil {
			return err
		}
	}
	es.mu.Lock()
	if es.lastCounts != nil {
		// A restart: resume the policy broadcast from the census the dead
		// server last published, not the empty cold-start one — otherwise
		// every vehicle's next revision diverges from a run that never lost
		// the server.
		es.srv.SetShares(es.lastCounts)
	}
	es.mu.Unlock()
	l, err := r.net.listen(nc.Listen)
	if err != nil {
		return err
	}
	es.listener = l
	go es.srv.Serve(l)

	if nc.GossipPeers != "" {
		return r.startGossip(es)
	}

	up, err := ShardRoute(nc.CloudAddr, nc.Shards, nc.Regions, nc.ID)
	if err != nil {
		return err
	}
	es.link = &edge.CloudLink{
		Edge: nc.ID,
		Dialer: &transport.Dialer{
			Dial:        r.upDial(es, up),
			MaxAttempts: 10,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Seed:        nc.Seed + 1,
		},
		ReplyTimeout: r.roundTmo,
		Obs:          r.o,
		OnCorrection: func(round int, x float64) {
			es.mu.Lock()
			es.corrX, es.hasCorr = x, true
			es.mu.Unlock()
		},
	}

	if nc.LeaseTTL > 0 {
		es.hbStop = make(chan struct{})
		hb := &edge.Heartbeat{
			Edge: nc.ID,
			Dialer: &transport.Dialer{
				Dial:        r.upDial(es, up),
				MaxAttempts: 3,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        nc.Seed + 2,
			},
			TTL: nc.LeaseTTL,
			Obs: r.o,
		}
		stop := es.hbStop
		go hb.Run(stop)
	}
	return nil
}

// startGossip attaches edge es to its neighborhood's gossip plane: a local
// fold over the cloud's resolved model and field, a listener peers dial,
// and a node that escalates digests to the cloud. Replaces the
// CloudLink/heartbeat wiring entirely — in gossip mode the edge never
// reports censuses direct.
func (r *runner) startGossip(es *edgeState) error {
	nc := es.nc
	peers, err := ParseGossipPeers(nc.GossipPeers)
	if err != nil {
		return err
	}
	peerDial := func(member int) (transport.Conn, error) {
		// Peer links are the neighborhood LAN: outages and faults model the
		// edge→cloud uplink, not the local mesh.
		return r.net.dial(peers[member])
	}
	gl, err := r.net.listen(nc.GossipListen)
	if err != nil {
		return err
	}
	node, _, err := nc.NewGossipNode(GossipMembers(nc.ID, peers), peerDial, r.upDial(es, nc.CloudAddr))
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

// startFleet builds one fleet's vehicles and runs each client against its
// edge, reconnecting across kills.
func (r *runner) startFleet(f fleet) error {
	nc, co := f.nc, f.cohort
	equipped, desired, err := co.Masks()
	if err != nil {
		return err
	}
	vehicles, err := (&NodeConfig{Obs: r.o}).NewFleet(FleetSpec{
		N:                nc.N,
		IDBase:           nc.IDBase,
		Equipped:         equipped,
		Desired:          desired,
		Beta:             nc.Beta,
		Tau:              nc.Tau,
		Mu:               co.Mu,
		PrivacyWeightStd: co.PrivacyWeightStd,
		Seed:             nc.Seed,
		RegisterTimeout:  250 * time.Millisecond,
		Stop:             r.stop,
	})
	if err != nil {
		return err
	}
	dial := r.dialVia(nc.EdgeAddr, r.cohortFault[co.Name])
	for _, fv := range vehicles {
		r.fleetMu.Lock()
		r.fleet = append(r.fleet, fv)
		r.fleetMu.Unlock()
		dialer := &transport.Dialer{
			Dial:        dial,
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
	return nil
}

// awaitVehicles waits until each live edge of edges (all of them when none
// is named) has its expected vehicles registered, or timeout passes.
func (r *runner) awaitVehicles(timeout time.Duration, edges ...*edgeState) error {
	if len(edges) == 0 {
		edges = r.edges
	}
	deadline := time.Now().Add(timeout)
	for _, es := range edges {
		if es.down.Load() || es.killed.Load() {
			continue
		}
		es.mu.Lock()
		want := es.expected
		es.mu.Unlock()
		for es.srv.NumVehicles() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("scenario: only %d/%d vehicles registered at edge %d",
					es.srv.NumVehicles(), want, es.nc.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (r *runner) drive() (*runResult, error) {
	s := r.spec
	res := &runResult{convergedRound: -1}

	for t := 0; t < s.Rounds; t++ {
		if err := r.applyEvents(t); err != nil {
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
				r.logf("gossip %d: final flush: %v", es.nc.ID, err)
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
		r.logf("edge %d round %d: %v", es.nc.ID, t, err)
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
			r.logf("gossip %d round %d: %v", es.nc.ID, t, err)
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

// applyEvents applies round t's events in a fixed order: a partition heals,
// then begins; outages end, then begin; edges restart, then die; leaders are
// killed; shards restart, then die; surges arrive. Within a step, events
// keep their spec order.
func (r *runner) applyEvents(t int) error {
	// at lists the targets of the action's events (of the target kind, when
	// named) that begin at t, or with ending set, that end at t.
	at := func(action, kind string, ending bool) []int {
		var out []int
		for _, e := range r.spec.Events {
			k, n, _ := e.TargetKind() // validated; "cloud" has no index
			if e.Action == action && (kind == "" || k == kind) &&
				(!ending && e.Round == t || ending && e.Until > 0 && e.Until == t) {
				out = append(out, n)
			}
		}
		return out
	}
	if len(at("partition", "", true)) > 0 && r.cloudPart.Load() {
		r.cloudPart.Store(false)
		r.partLocalRounds += r.counterNow("gossip_local_rounds_total") - r.partMark
		r.logf("round %d: cloud partition healed", t)
	}
	if len(at("partition", "", false)) > 0 && !r.cloudPart.Load() {
		r.cloudPart.Store(true)
		r.partMark = r.counterNow("gossip_local_rounds_total")
		r.logf("round %d: cloud partitioned away", t)
	}
	for _, region := range at("outage", "", true) {
		r.edges[region].down.Store(false)
		r.logf("round %d: region %d restored", t, region)
	}
	for _, region := range at("outage", "", false) {
		r.edges[region].down.Store(true)
		r.logf("round %d: region %d outage", t, region)
	}
	for _, id := range at("kill", "edge", true) {
		es := r.edges[id]
		es.killed.Store(false)
		if err := r.startEdge(es); err != nil {
			return fmt.Errorf("restarting edge %d: %w", id, err)
		}
		r.logf("round %d: edge %d restarted", t, id)
		_ = r.awaitVehicles(2*time.Second, es) // a straggler catches up next round
	}
	for _, id := range at("kill", "edge", false) {
		r.stopEdge(r.edges[id])
		r.logf("round %d: edge %d killed", t, id)
	}
	for _, h := range at("leader-kill", "", false) {
		if err := r.killHoodLeader(h, t); err != nil {
			return err
		}
	}
	for _, id := range at("kill", "shard", true) {
		st := r.shards[id]
		if st.nc == nil {
			continue // was never started: owns no regions
		}
		if err := r.startShard(st); err != nil {
			return fmt.Errorf("restarting shard %d: %w", id, err)
		}
		r.logf("round %d: shard %d restarted", t, id)
	}
	for _, id := range at("kill", "shard", false) {
		r.stopShard(r.shards[id])
		r.logf("round %d: shard %d killed", t, id)
	}
	for _, e := range r.spec.Events {
		if e.Action != "surge" || e.Round != t {
			continue
		}
		for ci := range r.spec.Cohorts {
			co := &r.spec.Cohorts[ci]
			if co.Name != e.Cohort {
				continue
			}
			for _, f := range r.spec.cohortFleets(co, e.Count, r.seed, &r.nextID) {
				es := r.edges[f.region]
				es.mu.Lock()
				es.expected += f.nc.N
				es.mu.Unlock()
				if err := r.startFleet(f); err != nil {
					return fmt.Errorf("surge at round %d: %w", t, err)
				}
			}
			r.logf("round %d: surge — %d extra %s vehicles per region", t, e.Count, co.Name)
		}
		// Surged vehicles register asynchronously; give them a moment so
		// the next census sees most of them (a straggler joins a later one).
		_ = r.awaitVehicles(time.Second)
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
	var members []*edgeState
	for _, es := range r.edges {
		if es.nc.GossipHood == h {
			members = append(members, es)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	leader := func() *edgeState { // the live member that leads, polled until the deadline
		for ; time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			for _, es := range members {
				if es.gnode != nil && !es.killed.Load() && es.gnode.Leader() {
					return es
				}
			}
		}
		return nil
	}
	victim := leader()
	if victim == nil {
		return fmt.Errorf("leader-kill at round %d: neighborhood %d has no confirmed leader", t, h)
	}
	r.stopEdge(victim)
	r.logf("round %d: leader-kill — edge %d (neighborhood %d leader) killed", t, victim.nc.ID, h)

	succ := leader()
	if succ == nil {
		return fmt.Errorf("leader-kill at round %d: no successor promoted in neighborhood %d", t, h)
	}
	succEpoch := succ.gnode.Epoch()
	r.logf("round %d: leader-kill — edge %d promoted at epoch %d", t, succ.nc.ID, succEpoch)

	victim.killed.Store(false)
	if err := r.startEdge(victim); err != nil {
		return fmt.Errorf("leader-kill at round %d: restarting edge %d: %w", t, victim.nc.ID, err)
	}
	for victim.gnode.Epoch() < succEpoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("leader-kill at round %d: edge %d did not rejoin as a follower", t, victim.nc.ID)
		}
		time.Sleep(time.Millisecond)
	}
	r.logf("round %d: leader-kill — edge %d rejoined as a follower at epoch %d", t, victim.nc.ID, victim.gnode.Epoch())
	_ = r.awaitVehicles(5*time.Second, victim) // a straggler catches up next round
	return nil
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
