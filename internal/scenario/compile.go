package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gossip"
)

// plan is a compiled spec: the NodeConfig of every node a run starts. Nodes
// address each other by the names of the listeners the runner opens
// ("cloud", "shard-N", "edge-N", "gossip-N"), so a compiled node reads as the
// cpnode command line that would start it. A durable node's StateDir is
// relative to the run's state root. The model and field are not resolved
// here: the runner resolves them once, at start.
type plan struct {
	cloud  *NodeConfig   // the cloud, or the aggregator of a sharded tier
	shards []*NodeConfig // one per ring member; nil for a member that owns no regions
	edges  []*NodeConfig // one per region; a gossip edge carries GossipPeers
	fleets []fleet       // one per vehicle cohort and region, in spec order
	nextID int           // the first vehicle id a surge takes
}

// fleet is one cohort's vehicles at one region: a RoleVehicles NodeConfig
// and the FleetSpec StartFleet runs, which adds what the cohort fixes beyond
// it (sensor masks, mu, privacy spread).
type fleet struct {
	cohort *Cohort
	region int
	nc     *NodeConfig
	spec   FleetSpec
}

// compile turns a filled spec into the nodes a run with seed starts. It fails
// only where a cross-node rule of Validate already does.
func (s *Spec) compile(seed int64) (*plan, error) {
	t, c := &s.Topology, &s.Cloud
	m := t.Regions
	graph, err := GraphByName(t.Graph, m)
	if err != nil {
		return nil, err
	}
	// The fold parameters, copied once: the cloud and every gossip edge
	// resolve the same model and desired field from them. The round
	// deadline is the cloud's, and bounds every edge's waits.
	fold := Defaults("")
	fold.Seed = seed
	fold.Regions, fold.Graph = m, graph
	fold.X0, fold.TargetX, fold.Eps = c.X0, c.TargetX, c.Eps
	fold.Lambda, fold.Beta = c.Lambda, c.Beta
	fold.RoundDeadline = time.Duration(c.RoundDeadline)
	if c.Field != nil {
		if fold.Field, err = c.Field.Compile(m); err != nil {
			return nil, err
		}
	}
	node := func(role Role) *NodeConfig {
		nc := *fold
		nc.Role = role
		return &nc
	}
	stateDir := func(name string) string {
		if c.Durable {
			return name
		}
		return ""
	}

	p := &plan{nextID: 1}
	p.cloud = node(RoleCloud)
	if t.Shards > 1 {
		p.cloud.Role = RoleAggregator
	}
	p.cloud.Listen, p.cloud.StateDir = "cloud", stateDir("aggregator")
	p.cloud.FixedLag = c.FixedLag

	upstream := "cloud"
	if t.Shards > 1 {
		table, err := ShardTable(t.Shards, m)
		if err != nil {
			return nil, err
		}
		names := make([]string, t.Shards)
		p.shards = make([]*NodeConfig, t.Shards)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
			if len(table.Regions(i)) == 0 {
				continue // rendezvous hashing left it no regions: never dialed, never started
			}
			nc := Defaults(RoleShard)
			nc.Seed = seed + int64(10+i)
			nc.Regions, nc.Shards, nc.ShardID = m, t.Shards, i
			nc.ShardDeadline = time.Duration(c.RoundDeadline)
			nc.Listen, nc.AggregatorAddr, nc.StateDir = names[i], "cloud", stateDir(names[i])
			p.shards[i] = nc
		}
		upstream = strings.Join(names, ",")
	}

	var hoods [][]int
	if g := t.Gossip; g != nil {
		if hoods, err = gossip.Neighborhoods(m, g.Neighborhoods); err != nil {
			return nil, err
		}
	}
	for ci := range s.Cohorts {
		if co := &s.Cohorts[ci]; co.Kind != KindRSU {
			p.fleets = append(p.fleets, s.cohortFleets(co, co.PerRegion, seed, &p.nextID)...)
		}
	}
	p.edges = make([]*NodeConfig, m)
	for i := range p.edges {
		nc := node(RoleEdge)
		nc.ID = i
		nc.Seed = int64(splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + 0xedbe + uint64(i)))
		nc.Rounds, nc.Vehicles = s.Rounds, 0
		nc.Listen, nc.CloudAddr, nc.Shards = fmt.Sprintf("edge-%d", i), upstream, t.Shards
		nc.LeaseTTL = time.Duration(c.LeaseTTL)
		for _, f := range p.fleets {
			if f.region == i {
				nc.Vehicles += f.nc.N
			}
		}
		if g := t.Gossip; g != nil {
			h := gossip.HoodOf(hoods, i)
			peers := make([]string, len(hoods[h]))
			for j, member := range hoods[h] {
				peers[j] = fmt.Sprintf("%d=gossip-%d", member, member)
			}
			nc.GossipPeers, nc.GossipListen = strings.Join(peers, ","), fmt.Sprintf("gossip-%d", i)
			nc.GossipHood, nc.GossipOf = h, len(hoods)
			nc.GossipEvery, nc.GossipMaxBacklog = g.EscalateEvery, g.MaxBacklog
			nc.GossipDeadline, nc.GossipFailoverTTL = time.Duration(g.Deadline), time.Duration(g.FailoverTTL)
			nc.StateDir = stateDir(nc.GossipListen)
		}
		p.edges[i] = nc
	}
	return p, nil
}

// cohortFleets lays n of the cohort's vehicles at each of its regions,
// numbering them from *next on.
func (s *Spec) cohortFleets(co *Cohort, n int, seed int64, next *int) []fleet {
	equipped, desired, _ := co.Masks() // validated
	var out []fleet
	for _, region := range cohortRegions(co, s.Topology.Regions) {
		nc := Defaults(RoleVehicles)
		nc.EdgeAddr = fmt.Sprintf("edge-%d", region)
		nc.N, nc.IDBase, nc.Seed = n, *next, seed
		nc.Beta, nc.Tau = co.Beta, co.Tau
		nc.RetryMax = 10000 // a spec's vehicles redial through every kill window
		*next += n
		out = append(out, fleet{cohort: co, region: region, nc: nc, spec: FleetSpec{
			N: n, IDBase: nc.IDBase, Equipped: equipped, Desired: desired, Beta: co.Beta, Tau: co.Tau,
			Mu: co.Mu, PrivacyWeightStd: co.PrivacyWeightStd, Seed: seed,
		}})
	}
	return out
}

func cohortRegions(co *Cohort, m int) []int {
	if len(co.Regions) > 0 {
		return co.Regions
	}
	return allRegions(m)
}

func allRegions(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// edgeLinks assigns each region the index of the edge_cloud link profile
// covering it (-1 for none). A region that two profiles cover, or that one
// profile lists twice, is a problem; regions out of range are skipped (the
// region check reports them).
func (s *Spec) edgeLinks() (at []int, problems []string) {
	at = make([]int, max(s.Topology.Regions, 0))
	for i := range at {
		at[i] = -1
	}
	for li := range s.Links {
		l := &s.Links[li]
		if l.Link != "edge_cloud" {
			continue
		}
		regions := l.Regions
		if len(regions) == 0 {
			regions = allRegions(len(at))
		}
		for _, i := range regions {
			switch {
			case i < 0 || i >= len(at):
			case at[i] == li:
				problems = append(problems, fmt.Sprintf("links[%d]: region %d listed twice", li, i))
			case at[i] >= 0:
				problems = append(problems, fmt.Sprintf("links[%d]: region %d already has the edge_cloud profile links[%d]", li, i, at[i]))
			default:
				at[i] = li
			}
		}
	}
	return at, problems
}
