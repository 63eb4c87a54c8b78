// Command cpnode runs one role of the cooperative-perception system over
// real TCP, so the cloud/edge/vehicle protocol of Fig. 1 can be exercised
// across processes (or machines):
//
//	# terminal 1: the cloud coordinator for 2 regions
//	cpnode -role cloud -listen 127.0.0.1:7000 -regions 2
//
//	# terminals 2,3: one edge server per region
//	cpnode -role edge -id 0 -listen 127.0.0.1:7100 -cloud 127.0.0.1:7000 -vehicles 20 -rounds 40
//	cpnode -role edge -id 1 -listen 127.0.0.1:7101 -cloud 127.0.0.1:7000 -vehicles 20 -rounds 40
//
//	# terminals 4,5: vehicle fleets
//	cpnode -role vehicles -edge 127.0.0.1:7100 -n 20 -id-base 100
//	cpnode -role vehicles -edge 127.0.0.1:7101 -n 20 -id-base 200
//
// The cloud steers both regions toward a high-sharing desired field with
// FDS; watch the per-round ratio and decision census printed by the edges.
//
// Any role can additionally expose its observability endpoint:
//
//	cpnode -role cloud ... -metrics 127.0.0.1:9100
//	curl -s http://127.0.0.1:9100/metrics | grep consensus_rounds_total
//
// which serves the obs registry (/metrics, Prometheus text format), the
// recent per-round spans (/debug/spans), and net/http/pprof.
//
// The consensus tier can also be sharded by region group: shard
// coordinators own their groups' round barriers and batch each round
// upstream to one aggregator, whose global fold stays bit-identical to a
// single cloud (same consensus_state_hash):
//
//	# the aggregation tier (a cloud that answers census batches)
//	cpnode -role aggregator -listen 127.0.0.1:7000 -regions 4
//
//	# four shard coordinators, regions assigned by the rendezvous ring
//	cpnode -role shard -shards 4 -shard-id 0 -listen 127.0.0.1:7200 -aggregator 127.0.0.1:7000 -regions 4
//	...
//	cpnode -role shard -shards 4 -shard-id 3 -listen 127.0.0.1:7203 -aggregator 127.0.0.1:7000 -regions 4
//
//	# edges list every shard address; each routes to its region's owner
//	cpnode -role edge -id 0 -shards 4 -cloud 127.0.0.1:7200,127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203 ...
//
// Edges can instead form an edge-local gossip data plane: a neighborhood
// of edges exchanges censuses peer-to-peer, folds the consensus locally
// (same FDS core as the cloud), and its leader — the lowest edge id —
// escalates a compacted digest to the cloud every K rounds. The cloud
// becomes a slow control plane; edges keep shaping traffic while it is
// unreachable and reconcile on heal:
//
//	# the control plane (never on the round critical path)
//	cpnode -role cloud -listen 127.0.0.1:7000 -regions 2
//
//	# a two-edge neighborhood, escalating every 4 local rounds
//	cpnode -role edge -id 0 -listen 127.0.0.1:7100 -gossip-listen 127.0.0.1:7300 \
//	  -gossip-peers 1=127.0.0.1:7301 -gossip-every 4 -cloud 127.0.0.1:7000 -regions 2 ...
//	cpnode -role edge -id 1 -listen 127.0.0.1:7101 -gossip-listen 127.0.0.1:7301 \
//	  -gossip-peers 0=127.0.0.1:7300 -gossip-every 4 -cloud 127.0.0.1:7000 -regions 2 ...
//
// With -gossip-failover-ttl the leadership itself is fault tolerant: the
// leader heartbeats a lease to its peers, and when the lease lapses the ring
// successor promotes itself under a higher epoch, takes over the mirrored
// escalation backlog, and keeps escalating — a kill -9'd leader costs no
// digests. The killed node can restart from -state-dir and rejoins as a
// follower; the cloud's per-neighborhood digest watermark absorbs any
// re-escalated overlap. -gossip-max-backlog bounds the buffered digests
// while the cloud is unreachable (shedding oldest first).
//
// cpnode is a thin adapter over internal/scenario's typed NodeConfig: every
// flag is bound straight to a field of scenario.Defaults, so a flag's default
// is the Defaults value, and is registered with the roles that consume it. A
// flag set on a role that ignores it is rejected up front ("-role edge
// -fixed-lag 8" is an error, not a silently dead knob). The node itself is
// started by NodeConfig.Start, the start code cmd/scenario's runner starts
// every node of a spec with; cpnode adds only what a process needs: draining
// on SIGTERM, driving an edge's rounds, waiting on a fleet, and printing.
//
// A cloud, aggregator, shard or gossip edge given -state-dir keeps its
// checkpoint and journal there, and a restarted node resumes from them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// Role sets flags are registered with.
var (
	allRoles = scenario.Roles()
	// tierRoles run the global fold.
	tierRoles = []scenario.Role{scenario.RoleCloud, scenario.RoleAggregator}
	// foldRoles additionally include gossip edges, which resolve the same
	// model/field/FDS locally so the edge data plane folds the policy the
	// cloud control plane reconciles.
	foldRoles = []scenario.Role{scenario.RoleCloud, scenario.RoleAggregator, scenario.RoleEdge}
	// listenRoles accept connections and may keep durable state.
	listenRoles = []scenario.Role{scenario.RoleCloud, scenario.RoleAggregator, scenario.RoleShard, scenario.RoleEdge}
	shardOnly   = []scenario.Role{scenario.RoleShard}
	edgeOnly    = []scenario.Role{scenario.RoleEdge}
	fleetOnly   = []scenario.Role{scenario.RoleVehicles}
)

// nodeFlags is cpnode's command line over one NodeConfig.
type nodeFlags struct {
	fs *flag.FlagSet
	nc *scenario.NodeConfig
	// roles lists, per NodeConfig flag, the roles that consume it. -role,
	// -metrics and -fault-* apply to every role and are not in it.
	roles map[string][]scenario.Role

	role, metrics       *string
	faultDrop, faultDup *float64
	faultDelay          *time.Duration
}

// bind registers flag name on the NodeConfig field p points at — the field's
// Defaults value is the flag's default — consumed by roles.
func (f *nodeFlags) bind(p interface{}, name, usage string, roles []scenario.Role) {
	switch p := p.(type) {
	case *string:
		f.fs.StringVar(p, name, *p, usage)
	case *int:
		f.fs.IntVar(p, name, *p, usage)
	case *int64:
		f.fs.Int64Var(p, name, *p, usage)
	case *float64:
		f.fs.Float64Var(p, name, *p, usage)
	case *time.Duration:
		f.fs.DurationVar(p, name, *p, usage)
	default:
		panic(fmt.Sprintf("cpnode: flag -%s bound to unsupported type %T", name, p))
	}
	f.roles[name] = roles
}

func newNodeFlags(fs *flag.FlagSet) *nodeFlags {
	nc := scenario.Defaults("") // the role is known only after parsing
	f := &nodeFlags{fs: fs, nc: nc, roles: map[string][]scenario.Role{}}
	f.role = fs.String("role", "", "cloud | aggregator | shard | edge | vehicles")
	f.bind(&nc.Listen, "listen", "listen address (cloud, shard, edge)", listenRoles)
	f.bind(&nc.CloudAddr, "cloud", "cloud address, or comma-separated shard addresses with -shards > 1 (edge)", edgeOnly)
	f.bind(&nc.EdgeAddr, "edge", "edge address (vehicles)", fleetOnly)
	f.bind(&nc.ID, "id", "edge/region id (edge)", edgeOnly)
	f.bind(&nc.IDBase, "id-base", "first vehicle id (vehicles)", fleetOnly)
	f.bind(&nc.Regions, "regions", "number of regions (cloud, aggregator, shard, edge)", listenRoles)
	f.bind(&nc.N, "n", "fleet size (vehicles)", fleetOnly)
	f.bind(&nc.Rounds, "rounds", "rounds to run (edge)", edgeOnly)
	f.bind(&nc.Vehicles, "vehicles", "vehicles to wait for before starting (edge)", edgeOnly)
	f.bind(&nc.X0, "x0", "initial sharing ratio (cloud)", foldRoles)
	f.bind(&nc.TargetX, "target-x", "desired sharing regime (cloud)", foldRoles)
	f.bind(&nc.Eps, "eps", "desired-field tolerance (cloud)", foldRoles)
	f.bind(&nc.FieldPath, "field", "desired-field JSON spec (cloud; overrides -target-x)", foldRoles)
	f.bind(&nc.Beta, "beta", "utility coefficient (cloud, vehicles)",
		[]scenario.Role{scenario.RoleCloud, scenario.RoleAggregator, scenario.RoleEdge, scenario.RoleVehicles})
	f.bind(&nc.Seed, "seed", "random seed", allRoles)

	f.faultDrop = fs.Float64("fault-drop", 0,
		"fault injection: per-message drop probability on this node's listener and uplinks")
	f.faultDelay = fs.Duration("fault-delay", 0,
		"fault injection: max injected per-message delay on this node's listener and uplinks (delays reorder frames)")
	f.faultDup = fs.Float64("fault-dup", 0,
		"fault injection: per-message duplication probability on this node's listener and uplinks")
	f.bind(&nc.FixedLag, "fixed-lag",
		"cloud: rewind window in rounds; a census arriving this late is folded back in and the corrected ratio re-published (0 = answer late censuses from current state)", tierRoles)
	f.bind(&nc.RetryMax, "retry-max",
		"max dial attempts per reconnect burst (shard, edge, vehicles)",
		[]scenario.Role{scenario.RoleShard, scenario.RoleEdge, scenario.RoleVehicles})
	f.bind(&nc.RoundDeadline, "round-deadline",
		"cloud: complete a round barrier after this long with last-known shares for missing edges (0 = wait forever)", tierRoles)
	f.metrics = fs.String("metrics", "",
		"serve /metrics, /debug/spans and /debug/pprof on this address (e.g. 127.0.0.1:9100; empty = off)")
	f.bind(&nc.IOTimeout, "io-timeout",
		"per-operation read/write deadline on every TCP conn, dialed or accepted (0 = off; must exceed the idle gap between rounds)", allRoles)
	f.bind(&nc.StateDir, "state-dir",
		"cloud, aggregator, shard, gossip edge: durable state directory (checkpoint + journal); a restarted node resumes the consensus from it (empty = in-memory only)", listenRoles)
	f.bind(&nc.LeaseTTL, "lease-ttl",
		"edge: membership lease TTL heartbeated to the cloud; a dead edge is evicted from the barrier quorum after this long (0 = no heartbeat)", edgeOnly)
	f.bind(&nc.Shards, "shards",
		"number of shard coordinators in the consensus tier (shard: ring size; edge: route -cloud's address list by region owner; 0/1 = unsharded)",
		[]scenario.Role{scenario.RoleShard, scenario.RoleEdge})
	f.bind(&nc.ShardID, "shard-id",
		"this coordinator's index into the shard ring (shard)", shardOnly)
	f.bind(&nc.AggregatorAddr, "aggregator",
		"aggregation-tier address census batches are forwarded to (shard)", shardOnly)
	f.bind(&nc.ShardDeadline, "shard-deadline",
		"shard: forward a round degraded after this long with owned regions missing (0 = wait for the full group)", shardOnly)
	f.bind(&nc.GossipPeers, "gossip-peers",
		"edge: comma-separated region=addr gossip peers; non-empty switches the edge from direct census reports to local gossip rounds", edgeOnly)
	f.bind(&nc.GossipListen, "gossip-listen",
		"edge: listen address peers dial for gossip censuses", edgeOnly)
	f.bind(&nc.GossipHood, "gossip-hood",
		"edge: this neighborhood's index among -gossip-of escalating to the cloud", edgeOnly)
	f.bind(&nc.GossipOf, "gossip-of",
		"edge: total neighborhoods the cloud folds digests from", edgeOnly)
	f.bind(&nc.GossipEvery, "gossip-every",
		"edge: the neighborhood leader escalates a digest every K-th local round", edgeOnly)
	f.bind(&nc.GossipDeadline, "gossip-deadline",
		"edge: local round barrier deadline; a silent peer degrades the round after this long (0 = wait forever)", edgeOnly)
	f.bind(&nc.GossipFailoverTTL, "gossip-failover-ttl",
		"edge: heartbeat lease TTL for neighborhood leadership; followers promote the ring successor after this long without a leader beat (0 = static leadership, no failover)", edgeOnly)
	f.bind(&nc.GossipMaxBacklog, "gossip-max-backlog",
		"edge: cap on buffered escalation digests while the cloud is unreachable; the oldest rounds are shed past the cap (0 = unbounded)", edgeOnly)
	return f
}

// config resolves the parsed command line into a validated NodeConfig. A flag
// the invocation set (flag.Visit) on a role that does not consume it is an
// error naming the flag and the roles that do.
func (f *nodeFlags) config() (*scenario.NodeConfig, error) {
	nc := f.nc
	nc.Role = scenario.Role(*f.role)
	if !slices.Contains(allRoles, nc.Role) {
		return nil, fmt.Errorf("scenario: unknown role %q (want cloud, aggregator, shard, edge, or vehicles)", nc.Role)
	}
	var err error
	faultSet := false
	f.fs.Visit(func(fl *flag.Flag) {
		if strings.HasPrefix(fl.Name, "fault-") {
			faultSet = true
		}
		roles, ok := f.roles[fl.Name]
		if err != nil || !ok || slices.Contains(roles, nc.Role) {
			return
		}
		names := make([]string, len(roles))
		for i, r := range roles {
			names[i] = string(r)
		}
		slices.Sort(names)
		err = fmt.Errorf("scenario: option %q is not used by role %q (applies to: %s)",
			fl.Name, nc.Role, strings.Join(names, ", "))
	})
	if err != nil {
		return nil, err
	}
	if faultSet {
		nc.Fault = &transport.FaultConfig{
			Seed:     nc.Seed,
			DropProb: *f.faultDrop,
			DupProb:  *f.faultDup,
			MinDelay: *f.faultDelay / 20,
			MaxDelay: *f.faultDelay,
		}
	}
	return nc, nc.Validate()
}

func main() {
	f := newNodeFlags(flag.CommandLine)
	flag.Parse()

	f.nc.Logf = log.Printf
	if *f.metrics != "" {
		o := obs.New()
		transport.Instrument(o) // wire bytes + codec encode/decode latency
		msrv, err := obs.Serve(*f.metrics, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpnode: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("metrics: serving /metrics, /debug/spans, /debug/pprof on http://%s\n", msrv.Addr())
		f.nc.Obs = o
	}

	nc, err := f.config()
	if err == nil {
		err = run(nc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpnode: %v\n", err)
		os.Exit(1)
	}
}

// run starts the node through scenario's start code, on the node's own TCP
// endpoints, and keeps the process alive for its role: a cloud or shard until
// it is signalled (draining first) or its listener dies, an edge through its
// rounds, a fleet until every vehicle's session has ended.
func run(nc *scenario.NodeConfig) error {
	node, err := nc.Start(scenario.Net{})
	if err != nil {
		return err
	}
	defer node.Stop()
	switch nc.Role {
	case scenario.RoleCloud, scenario.RoleAggregator:
		if nc.StateDir != "" {
			fmt.Printf("cloud: durable state in %s, resuming at round %d\n", nc.StateDir, node.Cloud.Latest()+1)
		}
		fmt.Printf("cloud: listening on %s, steering %d regions toward %s (round deadline %v, fixed lag %d)\n",
			node.Addr, nc.Regions, node.What, nc.RoundDeadline, nc.FixedLag)
		return serve(node, "cloud", node.Cloud.Drain)
	case scenario.RoleShard:
		if nc.StateDir != "" {
			fmt.Printf("shard %d: durable state in %s, resuming at round %d\n", nc.ShardID, nc.StateDir, node.Shard.Latest()+1)
		}
		table, _ := scenario.ShardTable(nc.Shards, nc.Regions) // Start built it
		fmt.Printf("shard %d/%d: listening on %s, owning regions %v, forwarding to %s (deadline %v)\n",
			nc.ShardID, nc.Shards, node.Addr, table.Regions(nc.ShardID), nc.AggregatorAddr, nc.ShardDeadline)
		return serve(node, fmt.Sprintf("shard %d", nc.ShardID), node.Shard.Drain)
	case scenario.RoleEdge:
		return runEdge(node)
	default:
		fmt.Printf("vehicles: %d agents connected to %s\n", nc.N, nc.EdgeAddr)
		if err := node.Wait(); err != nil {
			return err
		}
		fmt.Println("vehicles: edge closed the session, exiting")
		return nil
	}
}

// serve blocks until the node's listener dies or a termination signal
// arrives. With a state directory the consensus survives both kill -9
// (journal replay on the next start) and SIGTERM (graceful drain: pending
// round completed, checkpoint written).
func serve(node *scenario.Node, name string, drain func() error) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		log.Printf("%s: %v received, draining", name, s)
		if err := drain(); err != nil {
			log.Printf("%s: drain: %v", name, err)
		}
		node.Stop() // unblocks Wait
	}()
	return node.Wait()
}

// runEdge waits for the edge's vehicles, then runs its rounds free: from
// round 0 reporting to the cloud, or on the gossip data plane from the round
// after the journal's last. A failed upstream step keeps the round's ratio.
func runEdge(node *scenario.Node) error {
	nc := node.Config
	fmt.Printf("edge %d: listening on %s, waiting for %d vehicles\n", nc.ID, node.Addr, nc.Vehicles)
	for node.Edge.NumVehicles() < nc.Vehicles {
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("edge %d: %d vehicles registered, starting rounds\n", nc.ID, node.Edge.NumVehicles())

	t, x := 0, nc.X0
	if g := node.Gossip; g != nil {
		if nc.StateDir != "" {
			fmt.Printf("edge %d: durable gossip state in %s, resuming at round %d\n", nc.ID, nc.StateDir, g.Latest()+1)
		}
		role := "member"
		if g.Leader() {
			role = "leader"
		}
		peers, _ := scenario.ParseGossipPeers(nc.GossipPeers) // validated
		fmt.Printf("edge %d: gossiping on %s as %s of neighborhood %d/%d (members %v, escalate every %d), steering toward %s\n",
			nc.ID, node.GossipAddr, role, nc.GossipHood, nc.GossipOf, scenario.GossipMembers(nc.ID, peers), nc.GossipEvery, node.What)
		t, x = g.Latest()+1, g.X()
	} else if nc.LeaseTTL > 0 {
		fmt.Printf("edge %d: heartbeating membership lease (ttl %v)\n", nc.ID, nc.LeaseTTL)
	}

	for ; t < nc.Rounds; t++ {
		census, next, err := node.Round(t, x)
		switch {
		case census == nil:
			return fmt.Errorf("round %d: %w", t, err)
		case err != nil:
			log.Printf("edge %d round %d: upstream unreachable (%v); keeping x=%.2f", nc.ID, t, err, next)
		default:
			line := fmt.Sprintf("edge %d round %2d: x=%.2f census=%v -> next x=%.2f", nc.ID, t, x, census, next)
			if g := node.Gossip; g != nil {
				if cx, ok := g.CloudRatio(); ok {
					line += fmt.Sprintf(" (cloud view %.2f)", cx)
				}
			}
			fmt.Println(line)
		}
		x = next
	}
	if g := node.Gossip; g != nil {
		// Drain the escalation backlog so the control plane sees the tail
		// even when the run length is not a multiple of -gossip-every.
		if err := g.Flush(); err != nil {
			log.Printf("edge %d: final digest flush: %v", nc.ID, err)
		}
	}
	return nil
}
