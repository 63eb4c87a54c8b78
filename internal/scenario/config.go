// Package scenario is the declarative workload layer over the consensus
// tier: a typed node-configuration API shared by every entry point
// (cmd/cpnode, cmd/scenario, the agent simulation, the benchmark), a
// versioned JSON scenario spec that compiles to the NodeConfig of every node
// it starts, and a runner that starts those nodes, executes the scenario,
// and emits a machine-readable verdict.
//
// The configuration API is one struct: start from Defaults(role), assign
// the fields that differ, call Validate. Each knob is declared once (the
// NodeConfig field) and defaulted once (Defaults); cmd/cpnode binds its
// flags straight to those fields and rejects a flag the chosen role does
// not consume. All tier constructors (game model, desired field, FDS, cloud
// server, shard coordinator, vehicle fleets) live behind NodeConfig methods,
// so no component is wired from two different configuration paths.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

// Role names one node of the consensus tier.
type Role string

// The five cpnode roles. An aggregator is a cloud that additionally
// answers shard census batches; the distinction matters only for flag
// validation and documentation.
const (
	RoleCloud      Role = "cloud"
	RoleAggregator Role = "aggregator"
	RoleShard      Role = "shard"
	RoleEdge       Role = "edge"
	RoleVehicles   Role = "vehicles"
)

// Roles lists every valid role in display order.
func Roles() []Role {
	return []Role{RoleCloud, RoleAggregator, RoleShard, RoleEdge, RoleVehicles}
}

// NodeConfig is the typed configuration for one node of the tier: take
// Defaults(role), assign fields, call Validate, then use the constructor
// methods in build.go.
type NodeConfig struct {
	Role Role

	// Common runtime knobs.
	Listen string // listen address (cloud, aggregator, shard, edge)
	Seed   int64
	// Codec is "" or "binary" and nothing reads it: TCP is always binary.
	// It stays only because the frozen bench/tier.go assigns it; delete it
	// with the next benchmark-archetype PR.
	Codec     string
	IOTimeout time.Duration // per-op read/write deadline on TCP conns
	RetryMax  int           // max dial attempts per reconnect burst
	Fault     *transport.FaultConfig
	Obs       *obs.Observer
	Logf      func(format string, args ...interface{})

	// Cloud / aggregator.
	Regions       int
	X0            float64
	TargetX       float64
	Eps           float64
	Beta          float64
	Lambda        float64
	Tau           float64
	FieldPath     string        // declarative field JSON (overrides TargetX probe)
	Field         *policy.Field // programmatic field (overrides FieldPath)
	Model         *game.Model   // programmatic model (overrides Graph/Beta)
	Graph         game.Graph    // region graph (nil = DemoGraph(Regions))
	RoundDeadline time.Duration
	FixedLag      int
	StateDir      string

	// Shard.
	Shards         int
	ShardID        int
	AggregatorAddr string
	ShardDeadline  time.Duration

	// Edge.
	ID        int
	CloudAddr string
	Rounds    int
	Vehicles  int // registrations to wait for before starting rounds
	LeaseTTL  time.Duration

	// Edge gossip data plane (internal/gossip). A non-empty GossipPeers
	// switches the edge from direct census reports to local gossip rounds;
	// the cloud knobs above (X0, TargetX, Eps, Lambda, Beta, Graph, Field)
	// then parameterize the edge's local fold, which must resolve the same
	// policy the cloud runs.
	GossipPeers    string        // comma-separated "region=addr" peer list
	GossipListen   string        // gossip listener address
	GossipHood     int           // this neighborhood's index, 0 <= GossipHood < GossipOf
	GossipOf       int           // total neighborhoods reporting to the cloud
	GossipEvery    int           // leader escalates a digest every K-th local round
	GossipDeadline time.Duration // local round barrier deadline (0 = wait forever)
	// GossipFailoverTTL enables leader failover: heartbeat lease, ring
	// successor promotion, mirrored-backlog drain (0 = static leadership).
	GossipFailoverTTL time.Duration
	// GossipMaxBacklog caps the mirrored escalation backlog; the oldest
	// unacked rounds are shed past it (0 = unbounded).
	GossipMaxBacklog int

	// Vehicles.
	EdgeAddr string
	N        int
	IDBase   int
}

// Defaults returns the role's default configuration; cpnode's flag defaults
// are these values.
func Defaults(role Role) *NodeConfig {
	return &NodeConfig{
		Role:           role,
		Listen:         "127.0.0.1:0",
		Seed:           1,
		RetryMax:       8,
		Regions:        2,
		X0:             0.3,
		TargetX:        0.85,
		Eps:            0.05,
		Beta:           4.0,
		Lambda:         0.1,
		Tau:            DemoTau,
		RoundDeadline:  10 * time.Second,
		ShardDeadline:  5 * time.Second,
		CloudAddr:      "127.0.0.1:7000",
		AggregatorAddr: "127.0.0.1:7000",
		EdgeAddr:       "127.0.0.1:7100",
		GossipListen:   "127.0.0.1:0",
		GossipOf:       1,
		GossipEvery:    1,
		Rounds:         40,
		Vehicles:       20,
		N:              20,
		IDBase:         100,
	}
}

// Validate checks the configured role's fields, their ranges and their
// consistency. It is the one home of the per-node rules: Spec.Validate holds
// every node a spec compiles to it.
func (c *NodeConfig) Validate() error {
	if c.Codec != "" && c.Codec != "binary" {
		return fmt.Errorf("scenario: transport: unknown codec %q (want \"binary\" or empty)", c.Codec)
	}
	switch c.Role {
	case RoleCloud, RoleAggregator:
		if c.Model == nil && c.Regions <= 0 {
			return fmt.Errorf("scenario: role %s needs regions >= 1, got %d", c.Role, c.Regions)
		}
		if err := c.checkFold(); err != nil {
			return err
		}
		if c.FixedLag < 0 {
			return fmt.Errorf("scenario: fixed-lag must be >= 0, got %d", c.FixedLag)
		}
		if c.RoundDeadline < 0 {
			return fmt.Errorf("scenario: round-deadline must be >= 0")
		}
		if c.Field != nil && c.FieldPath != "" {
			return fmt.Errorf("scenario: field-value and field are mutually exclusive")
		}
	case RoleShard:
		if c.Shards <= 0 {
			return fmt.Errorf("scenario: role shard needs shards >= 1, got %d", c.Shards)
		}
		if c.ShardID < 0 || c.ShardID >= c.Shards {
			return fmt.Errorf("scenario: shard-id %d outside the ring of %d shards", c.ShardID, c.Shards)
		}
		if c.Regions <= 0 {
			return fmt.Errorf("scenario: role shard needs regions >= 1, got %d", c.Regions)
		}
		if c.ShardDeadline < 0 {
			return fmt.Errorf("scenario: shard-deadline must be >= 0")
		}
	case RoleEdge:
		if c.Rounds <= 0 {
			return fmt.Errorf("scenario: role edge needs rounds >= 1, got %d", c.Rounds)
		}
		if c.Vehicles < 0 {
			return fmt.Errorf("scenario: role edge needs vehicles >= 0, got %d", c.Vehicles)
		}
		if c.LeaseTTL < 0 {
			return fmt.Errorf("scenario: lease-ttl must be >= 0")
		}
		if c.GossipPeers != "" {
			if _, err := ParseGossipPeers(c.GossipPeers); err != nil {
				return err
			}
			if c.GossipOf < 1 {
				return fmt.Errorf("scenario: gossip-of must be >= 1, got %d", c.GossipOf)
			}
			if c.GossipHood < 0 || c.GossipHood >= c.GossipOf {
				return fmt.Errorf("scenario: gossip-hood %d outside 0..%d", c.GossipHood, c.GossipOf-1)
			}
			if c.GossipEvery < 1 {
				return fmt.Errorf("scenario: gossip-every must be >= 1, got %d", c.GossipEvery)
			}
			if c.GossipDeadline < 0 {
				return fmt.Errorf("scenario: gossip-deadline must be >= 0")
			}
			if c.GossipFailoverTTL < 0 {
				return fmt.Errorf("scenario: gossip-failover-ttl must be >= 0")
			}
			if c.GossipMaxBacklog < 0 {
				return fmt.Errorf("scenario: gossip-max-backlog must be >= 0")
			}
			if c.Shards > 1 {
				return fmt.Errorf("scenario: gossip edges report digests straight to the cloud; shards > 1 is not supported")
			}
			if c.LeaseTTL != 0 {
				return fmt.Errorf("scenario: gossip edges do not heartbeat leases; neighborhood membership is static")
			}
			return c.checkFold()
		}
	case RoleVehicles:
		if c.N <= 0 {
			return fmt.Errorf("scenario: role vehicles needs n >= 1, got %d", c.N)
		}
	}
	return nil
}

// checkFold holds the fold parameters a cloud, an aggregator or a gossip
// edge resolves its model and desired field from to their ranges (written
// so that NaN fails too).
func (c *NodeConfig) checkFold() error {
	switch {
	case !(c.X0 >= 0 && c.X0 <= 1):
		return fmt.Errorf("scenario: x0 %v out of [0,1]", c.X0)
	case !(c.TargetX >= 0 && c.TargetX <= 1):
		return fmt.Errorf("scenario: target-x %v out of [0,1]", c.TargetX)
	case !(c.Eps > 0 && c.Eps <= 1):
		return fmt.Errorf("scenario: eps %v out of (0,1]", c.Eps)
	case !(c.Lambda > 0 && c.Lambda <= 1):
		return fmt.Errorf("scenario: lambda %v out of (0,1]", c.Lambda)
	case !(c.Beta > 0):
		return fmt.Errorf("scenario: beta must be > 0, got %v", c.Beta)
	}
	return nil
}
