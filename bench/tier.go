package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/gossip"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/shard"
	"repro/internal/transport"
)

const (
	wireCodec = "binary" // the production wire path
	// edgeRoundTimeout bounds an edge's wait for its vehicles' uploads; a
	// round that hits it reports a short census and fails the hash check.
	edgeRoundTimeout = 5 * time.Second
	registerTimeout  = 10 * time.Second
)

// tier is one wired deployment of a workload: every node built through the
// scenario.NodeConfig constructors the way cmd/loadgen and the scenario
// runner build them, on loopback TCP with durable state under dir.
type tier struct {
	w    workload
	seed int64
	obs  *obs.Observer
	tr   *tracer // nil: dial funcs are not wrapped
	dir  string

	// foldNC resolves the model and field every fold of this tier shares
	// (cloud, gossip nodes, the reference fold and the probes).
	foldNC *scenario.NodeConfig
	agg    *cloud.Server
	coords []*shard.Coordinator // nil entries own no regions
	hoods  [][]int
	edges  []*edgeNode  // fleet workloads
	links  []*floodLink // flood workloads, one per region-owning shard
	flood  *floodInputs

	// censusLog[t][region] is the census region reported for round t — the
	// reference fold's input (fleet workloads).
	censusLog [][][]int
	// hashChain[t] is the aggregator's hash after round t, kept on the
	// workloads where that hash is final (see run).
	hashChain []uint32

	stop    chan struct{}
	clients sync.WaitGroup // vehicle client loops
	serving sync.WaitGroup // accept loops
	closers []func()       // run in reverse by close
}

// edgeNode is the driver's handle on one region's edge server.
type edgeNode struct {
	id   int
	srv  *edge.Server
	link *edge.CloudLink // nil on the gossip data plane
	node *gossip.Node    // nil unless gossip

	mu      sync.Mutex
	x       float64
	corrX   float64
	hasCorr bool
}

// floodLink is one of the flood driver's connections: the batch link to a
// shard and the region group it carries.
type floodLink struct {
	link     *edge.BatchLink
	regions  []int
	censuses []transport.Census // reused frame body, rebuilt every round
}

// floodInputs are a flood workload's pre-generated inputs.
type floodInputs struct {
	// pool[p][region] is the census region reports in every round t with
	// t % floodPool == p.
	pool [][][]int
	// late[t] is the differing census sent after round t (flood_rewind).
	late []lateCensus
	// owner[region] indexes links.
	owner []int
}

type lateCensus struct {
	depth  int // rounds behind the head, 1..maxRewindDepth
	region int
	counts []int
}

// buildTier wires the workload's tier and waits for every vehicle to
// register. The caller owns the returned tier and must close it.
func buildTier(w workload, seed int64, stateRoot string, tr *tracer) (_ *tier, err error) {
	dir, err := os.MkdirTemp(stateRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	t := &tier{w: w, seed: seed, obs: obs.New(), tr: tr, dir: dir, stop: make(chan struct{})}
	t.closers = append(t.closers, func() { os.RemoveAll(dir) })
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	// Package-global in transport: the newest tier's registry counts the
	// wire bytes and codec time, as a cpnode started with -metrics does.
	transport.Instrument(t.obs)

	if err := t.buildFold(); err != nil {
		return nil, err
	}
	aggAddr, err := t.startCloud()
	if err != nil {
		return nil, err
	}
	upAddrs := []string{aggAddr}
	if w.Shards > 0 {
		if upAddrs, err = t.startShards(aggAddr); err != nil {
			return nil, err
		}
	}
	if w.Flood {
		return t, t.buildFlood(upAddrs)
	}
	if err := t.startEdges(aggAddr, upAddrs); err != nil {
		return nil, err
	}
	return t, t.awaitRegistrations()
}

// buildFold resolves the model and desired field once; every fold of the
// tier (and the reference) is constructed from this one NodeConfig.
func (t *tier) buildFold() error {
	w := t.w
	role := scenario.RoleCloud
	if w.Shards > 0 {
		role = scenario.RoleAggregator
	}
	nc := scenario.Defaults(role)
	nc.Seed = t.seed
	nc.Regions = w.Regions
	nc.Codec = wireCodec
	nc.FixedLag = fixedLag
	nc.Lambda = 0.1
	k := lattice.NewPaper().K()
	if w.Flood {
		// cmd/loadgen's tier: sparse ring coupling and a P1 band, both of
		// which stay affordable at 1024 regions.
		field, err := scenario.P1BandField(w.Regions, k, 0.7, 0.1)
		if err != nil {
			return err
		}
		nc.Beta, nc.X0 = 3, 0.5
		nc.Graph = scenario.CycleGraph(w.Regions)
		nc.Field = field
	} else {
		// scenarios/citywide.yaml: dense demo graph, operator floor of 15%
		// on the all-sharing decision P1.
		field := policy.NewFreeField(w.Regions, k)
		for i := range field.P {
			field.P[i][0].Lo = 0.15
		}
		nc.X0 = 0.2
		nc.Graph = scenario.DemoGraph(w.Regions)
		nc.Field = field
	}
	model, err := nc.BuildModel()
	if err != nil {
		return err
	}
	nc.Model = model
	t.foldNC = nc
	return nil
}

func (t *tier) listen(nc *scenario.NodeConfig, serve func(transport.Listener)) (string, error) {
	l, err := nc.Listener() // 127.0.0.1:0
	if err != nil {
		return "", err
	}
	t.closers = append(t.closers, func() { l.Close() })
	t.serve(l, serve)
	return l.Addr(), nil
}

func (t *tier) serve(l transport.Listener, serve func(transport.Listener)) {
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		serve(l)
	}()
}

func (t *tier) startCloud() (string, error) {
	nc := *t.foldNC
	nc.Obs = t.obs
	nc.StateDir = filepath.Join(t.dir, "aggregator")
	srv, _, err := nc.NewCloud()
	if err != nil {
		return "", err
	}
	t.agg = srv
	addr, err := t.listen(&nc, srv.Serve)
	t.closers = append(t.closers, srv.Close)
	return addr, err
}

func (t *tier) startShards(aggAddr string) ([]string, error) {
	table, err := scenario.ShardTable(t.w.Shards, t.w.Regions)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, t.w.Shards)
	t.coords = make([]*shard.Coordinator, t.w.Shards)
	for s := 0; s < t.w.Shards; s++ {
		if len(table.Regions(s)) == 0 {
			continue // never dialed, so never started (as the scenario runner)
		}
		nc := scenario.Defaults(scenario.RoleShard)
		nc.Seed = t.seed + int64(10+s)
		nc.Codec = wireCodec
		nc.Regions, nc.Shards, nc.ShardID = t.w.Regions, t.w.Shards, s
		nc.StateDir = filepath.Join(t.dir, fmt.Sprintf("shard-%d", s))
		nc.Obs = t.obs
		coord, upstream, err := nc.NewShard(t.dial(linkTier, nc.DialFunc(aggAddr, transport.WithTimeout(time.Minute))))
		if err != nil {
			return nil, err
		}
		t.coords[s] = coord
		addrs[s], err = t.listen(nc, coord.Serve)
		t.closers = append(t.closers, func() { coord.Close(); upstream.Close() })
		if err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// startEdges brings up one edge server per region with its uplink (cloud
// link, shard-routed cloud link, or gossip node) and its vehicle cohorts.
func (t *tier) startEdges(aggAddr string, upAddrs []string) error {
	w := t.w
	t.edges = make([]*edgeNode, w.Regions)
	edgeAddrs := make([]string, w.Regions)
	for i := 0; i < w.Regions; i++ {
		nc := scenario.Defaults(scenario.RoleEdge)
		nc.ID = i
		nc.Seed = t.seed*1_000_003 + 0xedbe + int64(i)
		nc.Codec = wireCodec
		nc.Obs = t.obs
		en := &edgeNode{id: i, x: t.foldNC.X0, srv: nc.NewEdge()}
		t.edges[i] = en
		addr, err := t.listen(nc, en.srv.Serve)
		t.closers = append(t.closers, en.srv.Close)
		if err != nil {
			return err
		}
		edgeAddrs[i] = addr

		if w.Hoods > 0 {
			continue // uplinks are wired by startGossip once every edge exists
		}
		nc.Regions, nc.Shards = w.Regions, w.Shards
		nc.CloudAddr = strings.Join(upAddrs, ",")
		upAddr, err := scenario.ShardRoute(nc.CloudAddr, nc.Shards, nc.Regions, i)
		if err != nil {
			return err
		}
		link, err := nc.NewCloudLink(t.dial(linkEdgeUp, nc.DialFunc(upAddr, transport.WithTimeout(time.Minute))))
		if err != nil {
			return err
		}
		link.OnCorrection = func(_ int, x float64) {
			en.mu.Lock()
			en.corrX, en.hasCorr = x, true
			en.mu.Unlock()
		}
		en.link = link
		t.closers = append(t.closers, func() { link.Close() })
	}

	if w.Hoods > 0 {
		if err := t.startGossip(aggAddr); err != nil {
			return err
		}
	}

	// Vehicle clients exit when stop closes and their edge hangs up.
	t.closers = append(t.closers, func() { close(t.stop) })
	nextID := 1
	for i := 0; i < w.Regions; i++ {
		for _, c := range w.cohorts() {
			if err := t.startCohort(edgeAddrs[i], c, nextID); err != nil {
				return err
			}
			nextID += c.n
		}
	}
	return nil
}

// gossipConfig is edge's gossip-node configuration: the tier's fold (same
// model and field as the cloud) and its place in the neighborhoods. Obs and
// StateDir are left for the caller.
func (t *tier) gossipConfig(edge int) *scenario.NodeConfig {
	nc := scenario.Defaults(scenario.RoleEdge)
	f := t.foldNC
	nc.Regions, nc.Graph, nc.Model, nc.Field = f.Regions, f.Graph, f.Model, f.Field
	nc.X0, nc.Lambda, nc.Beta, nc.Codec = f.X0, f.Lambda, f.Beta, f.Codec
	nc.ID, nc.Seed = edge, t.seed+int64(100+edge)
	nc.GossipHood, nc.GossipOf = gossip.HoodOf(t.hoods, edge), len(t.hoods)
	nc.GossipEvery = gossipEvery
	nc.GossipFailoverTTL = gossipTTL
	return nc
}

// startGossip attaches every edge to its neighborhood's gossip plane. All
// peer listeners open before any node starts, so the leaders' first
// heartbeats find their peers.
func (t *tier) startGossip(aggAddr string) error {
	hoods, err := gossip.Neighborhoods(t.w.Regions, t.w.Hoods)
	if err != nil {
		return err
	}
	t.hoods = hoods
	nc := t.gossipConfig(0)
	nc.Obs = t.obs

	listeners := make([]transport.Listener, len(t.edges))
	for i := range t.edges {
		if listeners[i], err = nc.Listener(); err != nil {
			return err
		}
		l := listeners[i]
		t.closers = append(t.closers, func() { l.Close() })
	}
	for i, en := range t.edges {
		gnc := t.gossipConfig(i)
		gnc.Obs = t.obs
		gnc.StateDir = filepath.Join(t.dir, fmt.Sprintf("gossip-%d", i))
		peerDial := func(member int) (transport.Conn, error) {
			return t.dial(linkTier, gnc.DialFunc(listeners[member].Addr()))()
		}
		cloudDial := t.dial(linkEdgeUp, gnc.DialFunc(aggAddr))
		node, _, err := gnc.NewGossipNode(hoods[gnc.GossipHood], peerDial, cloudDial)
		if err != nil {
			return err
		}
		en.node = node
		t.serve(listeners[i], node.Serve)
		t.closers = append(t.closers, node.Close)
	}
	return nil
}

func (t *tier) startCohort(edgeAddr string, c cohort, idBase int) error {
	nc := &scenario.NodeConfig{Obs: t.obs, Codec: wireCodec, Beta: t.foldNC.Beta}
	fleet, err := nc.NewFleet(scenario.FleetSpec{
		N: c.n, IDBase: idBase,
		Equipped: c.equipped, Desired: sensor.MaskAll,
		Seed:            t.seed,
		RegisterTimeout: 250 * time.Millisecond,
		Stop:            t.stop,
	})
	if err != nil {
		return err
	}
	dial := t.dial(linkVehicleEdge, nc.DialFunc(edgeAddr))
	for _, fv := range fleet {
		client := fv.Client
		dialer := &transport.Dialer{
			Dial:        dial,
			MaxAttempts: 100,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Seed:        int64(fv.Agent.Profile.ID) + 0x5eed,
		}
		t.clients.Add(1)
		go func() {
			defer t.clients.Done()
			_ = client.RunWithReconnect(dialer) // ends when stop closes
		}()
	}
	return nil
}

func (t *tier) awaitRegistrations() error {
	want := t.w.Taxi + t.w.Transit
	deadline := time.Now().Add(registerTimeout)
	for _, en := range t.edges {
		for en.srv.NumVehicles() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: only %d/%d vehicles registered at edge %d",
					t.w.Name, en.srv.NumVehicles(), want, en.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// buildFlood opens the flood driver's batch links and generates every
// input from the seed, before any clock starts.
func (t *tier) buildFlood(shardAddrs []string) error {
	w := t.w
	table, err := scenario.ShardTable(w.Shards, w.Regions)
	if err != nil {
		return err
	}
	in := &floodInputs{owner: make([]int, w.Regions)}
	nc := &scenario.NodeConfig{Codec: wireCodec}
	for s := 0; s < w.Shards; s++ {
		regions := table.Regions(s)
		if len(regions) == 0 {
			continue
		}
		for _, r := range regions {
			in.owner[r] = len(t.links)
		}
		link := &edge.BatchLink{
			Shard: s,
			Dialer: &transport.Dialer{
				Dial: t.dial(linkEdgeUp, nc.DialFunc(shardAddrs[s], transport.WithTimeout(time.Minute))),
				Seed: t.seed + int64(s),
			},
			ReplyTimeout: 30 * time.Second,
			Obs:          t.obs,
		}
		t.closers = append(t.closers, func() { link.Close() })
		t.links = append(t.links, &floodLink{
			link:     link,
			regions:  regions,
			censuses: make([]transport.Census, len(regions)),
		})
	}

	k := lattice.NewPaper().K()
	rng := rand.New(rand.NewSource(t.seed))
	census := func() []int {
		counts := make([]int, k)
		for v := 0; v < w.PerCensus; v++ {
			counts[rng.Intn(k)]++
		}
		return counts
	}
	in.pool = make([][][]int, floodPool)
	for p := range in.pool {
		in.pool[p] = make([][]int, w.Regions)
		for r := range in.pool[p] {
			in.pool[p][r] = census()
		}
	}
	if w.Rewind {
		in.late = make([]lateCensus, maxRounds)
		for i := range in.late {
			in.late[i] = lateCensus{
				depth:  1 + rng.Intn(maxRewindDepth),
				region: rng.Intn(w.Regions),
				counts: census(),
			}
		}
	}
	t.flood = in
	return nil
}

// halt stops every node in reverse build order and waits for every
// goroutine the tier started; its state directory stays for the recovery
// probes.
func (t *tier) halt() {
	for i := len(t.closers) - 1; i > 0; i-- {
		t.closers[i]()
	}
	t.clients.Wait()
	t.serving.Wait()
	if len(t.closers) > 0 {
		t.closers = t.closers[:1]
	}
}

// close halts the tier and removes its state directory.
func (t *tier) close() {
	t.halt()
	if len(t.closers) > 0 {
		t.closers[0]()
	}
	t.closers = nil
}
