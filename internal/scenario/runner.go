package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sensor"
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

// via is the Net a node of the run starts on: the named network, each
// uplink dial failing first while gate (nil: none) says so and then wrapped
// in fault (nil: none). Peer links get neither.
func (n *netw) via(fault *transport.Fault, gate func() error) Net {
	return Net{
		Listen: n.listen,
		Dial: func(addr string) func() (transport.Conn, error) {
			return func() (transport.Conn, error) {
				if gate != nil {
					if err := gate(); err != nil {
						return nil, err
					}
				}
				c, err := n.dial(addr)
				if err == nil && fault != nil {
					c = fault.WrapConn(c)
				}
				return c, err
			}
		},
		Peer: func(addr string) func() (transport.Conn, error) {
			return func() (transport.Conn, error) { return n.dial(addr) }
		},
	}
}

// edgeState is the runner's view of one region's edge, across restarts.
type edgeState struct {
	nc   *NodeConfig
	node *Node // the edge's current life

	down   atomic.Bool // outage: silent toward the tier
	killed atomic.Bool

	mu         sync.Mutex // guards x and lastCounts, written by the edge's round
	x          float64
	lastCounts []int       // last completed census; re-seeds a restarted server's shares
	expected   int         // vehicles that should be registered (runner goroutine only)
	percept    sensor.Mask // road-side perception (0 = none)
}

// shardState is the driver's view of one shard coordinator.
type shardState struct {
	nc   *NodeConfig // nil: the member owns no regions and never starts
	node *Node       // nil while the shard is down
}

type runner struct {
	spec *Spec
	seed int64
	logf func(string, ...any)
	o    *obs.Observer
	net  *netw
	down sync.Once // teardown

	agg    *Node
	shards []*shardState
	edges  []*edgeState
	fleets []*Node

	edgeFaults  []*transport.Fault // per edge (nil entries)
	shardFault  *transport.Fault
	cohortFault map[string]*transport.Fault

	cloudPart       atomic.Bool // partition event in force: cloud dials fail fast
	partMark        uint64      // gossip_local_rounds_total when the partition began
	partLocalRounds uint64      // local rounds completed across partition windows

	nextID      int
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
		nextID:      p.nextID,
		cohortFault: map[string]*transport.Fault{},
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

// start starts the plan's nodes, each with the run's observer, a log
// prefix, and its state directory under the run's root.
func (r *runner) start(p *plan) error {
	scope := func(nc *NodeConfig, prefix string) *NodeConfig {
		nc.Obs = r.o
		nc.Logf = func(format string, args ...any) { r.logf(prefix+format, args...) }
		if nc.StateDir != "" {
			nc.StateDir = filepath.Join(r.stateDirs, nc.StateDir)
		}
		return nc
	}
	var err error
	if r.agg, err = scope(p.cloud, "cloud: ").Start(r.net.via(nil, nil)); err != nil {
		return err
	}
	r.logf("cloud up: %d regions, steering toward %s", p.cloud.Regions, r.agg.What)

	r.shards = make([]*shardState, len(p.shards))
	for i, nc := range p.shards {
		r.shards[i] = &shardState{nc: nc}
		if nc == nil {
			r.logf("shard %d owns no regions in the %d-region ring; not started", i, len(p.edges))
			continue
		}
		scope(nc, fmt.Sprintf("shard %d: ", i))
		if err := r.startShard(r.shards[i]); err != nil {
			return err
		}
	}

	if g := r.spec.Topology.Gossip; g != nil {
		r.logf("gossip data plane: %d neighborhoods over %d regions, escalate every %d rounds",
			p.edges[0].GossipOf, len(p.edges), g.EscalateEvery)
	}
	r.edges = make([]*edgeState, len(p.edges))
	for i, nc := range p.edges {
		r.edges[i] = &edgeState{nc: scope(nc, fmt.Sprintf("edge %d: ", i)), x: nc.X0, expected: nc.Vehicles}
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

func (r *runner) startShard(st *shardState) error {
	node, err := st.nc.Start(r.net.via(r.shardFault, nil))
	st.node = node
	return err
}

func (r *runner) stopShard(st *shardState) {
	if st.node != nil {
		st.node.Stop()
		st.node = nil
	}
}

// startEdge starts one life of edge es. Its uplink dials go through its
// fault profile and fail while it is down or killed, so leases lapse while
// the region is silent, and while a partition (gossip topologies only) is
// in force. A restarted server resumes the shares its predecessor last
// published — otherwise every vehicle's next revision diverges from a run
// that never lost the server.
func (r *runner) startEdge(es *edgeState) error {
	node, err := es.nc.Start(r.net.via(r.edgeFaults[es.nc.ID], func() error {
		if r.cloudPart.Load() {
			return fmt.Errorf("scenario: cloud partitioned away")
		}
		if es.down.Load() || es.killed.Load() {
			return fmt.Errorf("scenario: edge %d is offline", es.nc.ID)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	es.node = node
	if es.percept != 0 {
		if err := node.Edge.EnablePerception(es.percept); err != nil {
			return err
		}
	}
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.lastCounts != nil {
		node.Edge.SetShares(es.lastCounts)
	}
	return nil
}

func (r *runner) stopEdge(es *edgeState) {
	es.killed.Store(true)
	es.node.Stop()
}

// startFleet starts one fleet's vehicles against their edge through the
// cohort's fault profile; they reconnect across kills.
func (r *runner) startFleet(f fleet) error {
	f.nc.Obs = r.o
	node, err := f.nc.StartFleet(f.spec, r.net.via(r.cohortFault[f.cohort.Name], nil))
	if err != nil {
		return err
	}
	r.fleets = append(r.fleets, node)
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
		for es.node.Edge.NumVehicles() < es.expected {
			if time.Now().After(deadline) {
				return fmt.Errorf("scenario: only %d/%d vehicles registered at edge %d",
					es.node.Edge.NumVehicles(), es.expected, es.nc.ID)
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

		// Every live edge runs round t; a failed one keeps its ratio and
		// catches up next round, like a partitioned cpnode edge.
		roundStart := time.Now()
		var wg sync.WaitGroup
		for _, es := range r.edges {
			if es.down.Load() || es.killed.Load() {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				es.mu.Lock()
				x := es.x
				es.mu.Unlock()
				counts, next, err := es.node.Round(t, x)
				es.mu.Lock()
				es.x = next
				if counts != nil {
					es.lastCounts = counts
				}
				es.mu.Unlock()
				if err != nil {
					r.logf("edge %d round %d: %v", es.nc.ID, t, err)
					r.failedRep.Add(1)
				}
			}()
		}
		wg.Wait()
		res.latencies = append(res.latencies, time.Since(roundStart))

		if res.convergedRound < 0 && r.agg.Cloud.Converged() {
			res.convergedRound = t
			r.logf("round %d: desired field satisfied", t)
		}
	}

	// The run is over. Heal any partition still in force and drain every
	// leader's escalation backlog, so the cloud's fold reflects all local
	// rounds before its hash is read — this is the reconcile-on-heal step
	// the partition verdicts compare against an always-connected run.
	if r.healPartition() {
		r.logf("end of run: cloud partition healed for reconciliation")
	}
	for _, es := range r.edges {
		if es.node.Gossip != nil && !es.killed.Load() {
			if err := es.node.Gossip.Flush(); err != nil {
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
	res.hash = r.agg.Cloud.StateHash()
	res.converged = res.convergedRound >= 0 || r.agg.Cloud.Converged()
	state := r.agg.Cloud.State()
	for _, x := range state.X {
		res.meanX += x
	}
	res.meanX /= float64(len(state.X))
	res.failedReports = int(r.failedRep.Load())

	r.teardown()
	for _, f := range r.fleets {
		// A vehicle's session ends (nil or error) when its fleet stops or
		// its dial attempts run out mid-kill; either way its welfare tallies
		// are readable once Wait returns.
		_ = f.Wait()
		res.vehicles += len(f.Fleet)
		for _, fv := range f.Fleet {
			res.welfare.ReceivedUtility += fv.Agent.ReceivedUtility
			res.welfare.SharedCost += fv.Agent.SharedCost
			res.welfare.DeliveredItems += fv.Agent.ReceivedItems
		}
	}
	res.welfare.Net = res.welfare.ReceivedUtility - res.welfare.SharedCost

	res.snapshot = r.o.Registry().Snapshot()
	return res, nil
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
	if len(at("partition", "", true)) > 0 && r.healPartition() {
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
				r.edges[f.region].expected += f.nc.N
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

// healPartition ends a partition in force, counting the local rounds
// completed during it, and reports whether there was one.
func (r *runner) healPartition() bool {
	if !r.cloudPart.Swap(false) {
		return false
	}
	r.partLocalRounds += r.counterNow("gossip_local_rounds_total") - r.partMark
	return true
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
				if !es.killed.Load() && es.node.Gossip.Leader() {
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
	succEpoch := succ.node.Gossip.Epoch()
	r.logf("round %d: leader-kill — edge %d promoted at epoch %d", t, succ.nc.ID, succEpoch)

	victim.killed.Store(false)
	if err := r.startEdge(victim); err != nil {
		return fmt.Errorf("leader-kill at round %d: restarting edge %d: %w", t, victim.nc.ID, err)
	}
	for victim.node.Gossip.Epoch() < succEpoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("leader-kill at round %d: edge %d did not rejoin as a follower", t, victim.nc.ID)
		}
		time.Sleep(time.Millisecond)
	}
	r.logf("round %d: leader-kill — edge %d rejoined as a follower at epoch %d", t, victim.nc.ID, victim.node.Gossip.Epoch())
	_ = r.awaitVehicles(5*time.Second, victim) // a straggler catches up next round
	return nil
}

func (r *runner) teardown() {
	r.down.Do(func() {
		for _, f := range r.fleets {
			f.Stop()
		}
		for _, es := range r.edges {
			if es != nil && es.node != nil && !es.killed.Load() {
				r.stopEdge(es)
			}
		}
		for _, st := range r.shards {
			if st != nil {
				r.stopShard(st)
			}
		}
		if r.agg != nil {
			r.agg.Stop()
		}
	})
}
