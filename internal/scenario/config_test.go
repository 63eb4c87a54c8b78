package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestDefaultsValidForEveryRole: Defaults(role) must validate — cpnode's
// flag defaults are a runnable configuration. Only shard has a required knob
// (the ring size has no sane default).
func TestDefaultsValidForEveryRole(t *testing.T) {
	for _, role := range Roles() {
		nc := Defaults(role)
		if role == RoleShard {
			nc.Shards = 1
		}
		if err := nc.Validate(); err != nil {
			t.Errorf("Defaults(%s): %v", role, err)
		}
	}
}

func TestValidateCrossFieldErrors(t *testing.T) {
	cases := []struct {
		name string
		role Role
		set  func(*NodeConfig)
		want string
	}{
		{"bad codec", RoleCloud, func(c *NodeConfig) { c.Codec = "json" }, `want "binary" or empty`},
		{"shard id outside ring", RoleShard, func(c *NodeConfig) { c.Shards, c.ShardID = 4, 5 }, "outside the ring"},
		{"zero shards", RoleShard, func(c *NodeConfig) { c.Shards = 0 }, "shards >= 1"},
		{"zero rounds", RoleEdge, func(c *NodeConfig) { c.Rounds = 0 }, "rounds >= 1"},
		{"empty fleet", RoleVehicles, func(c *NodeConfig) { c.N = 0 }, "n >= 1"},
		{"negative fixed lag", RoleCloud, func(c *NodeConfig) { c.FixedLag = -1 }, "fixed-lag"},
		{"field and field-path", RoleCloud, func(c *NodeConfig) { c.FieldPath, c.Field = "f.json", mustBandField(t, 2) }, "mutually exclusive"},
		{"x0 out of range", RoleCloud, func(c *NodeConfig) { c.X0 = 1.5 }, "x0 1.5 out of [0,1]"},
		{"target-x out of range", RoleAggregator, func(c *NodeConfig) { c.TargetX = -0.1 }, "target-x -0.1 out of [0,1]"},
		{"zero eps", RoleCloud, func(c *NodeConfig) { c.Eps = 0 }, "eps 0 out of (0,1]"},
		{"lambda out of range", RoleCloud, func(c *NodeConfig) { c.Lambda = 2 }, "lambda 2 out of (0,1]"},
		{"NaN lambda", RoleCloud, func(c *NodeConfig) { c.Lambda = math.NaN() }, "lambda NaN out of (0,1]"},
		{"zero beta on a gossip edge", RoleEdge, func(c *NodeConfig) { c.GossipPeers, c.Beta = "1=127.0.0.1:7301", 0 }, "beta must be > 0"},
		{"negative round deadline", RoleCloud, func(c *NodeConfig) { c.RoundDeadline = -time.Second }, "round-deadline must be >= 0"},
		{"negative shard deadline", RoleShard, func(c *NodeConfig) { c.Shards, c.ShardDeadline = 1, -time.Second }, "shard-deadline must be >= 0"},
		{"negative lease ttl", RoleEdge, func(c *NodeConfig) { c.LeaseTTL = -time.Second }, "lease-ttl must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := Defaults(tc.role)
			tc.set(nc)
			err := nc.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func mustBandField(t *testing.T, m int) *policy.Field {
	t.Helper()
	f, err := P1BandField(m, 8, 0.7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGraphByName(t *testing.T) {
	for _, name := range []string{"demo", "cycle"} {
		g, err := GraphByName(name, 3)
		if err != nil {
			t.Fatalf("GraphByName(%s): %v", name, err)
		}
		if g.M() != 3 {
			t.Errorf("graph %s M = %d, want 3", name, g.M())
		}
	}
	if _, err := GraphByName("torus", 3); err == nil {
		t.Error("unknown graph name accepted")
	}
}

// TestBuildCloudFromConfig: the shared constructor wires a working cloud —
// the same path cpnode, the agent sim, and the runner all use.
func TestBuildCloudFromConfig(t *testing.T) {
	nc := Defaults(RoleCloud)
	nc.Regions, nc.RoundDeadline = 2, 0
	if err := nc.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, desc, err := nc.NewCloud()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if desc == "" {
		t.Error("empty field description")
	}
	if srv.Latest() != -1 {
		t.Errorf("fresh cloud Latest = %d, want -1", srv.Latest())
	}
}

// TestFleetInitialSharesOneHot: a one-hot InitialShares starts every
// vehicle of the fleet at that decision.
func TestFleetInitialSharesOneHot(t *testing.T) {
	nc := Defaults(RoleVehicles)
	for d := 1; d <= 8; d++ {
		shares := make([]float64, 8)
		shares[d-1] = 1
		fleet, err := nc.NewFleet(FleetSpec{N: 50, IDBase: 1, Seed: 3, InitialShares: shares})
		if err != nil {
			t.Fatal(err)
		}
		for _, fv := range fleet {
			if got := int(fv.Agent.Decision()); got != d {
				t.Fatalf("one-hot decision %d: vehicle %d starts at %d", d, fv.Agent.Profile.ID, got)
			}
		}
	}
}

// TestFleetFirstDecisionIgnoresFleetSize: a vehicle's first decision is a
// function of (fleet seed, id) alone, so a larger fleet starts its shared
// vehicles where the smaller one does.
func TestFleetFirstDecisionIgnoresFleetSize(t *testing.T) {
	nc := Defaults(RoleVehicles)
	shares := []float64{0.3, 0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.05}
	small, err := nc.NewFleet(FleetSpec{N: 8, IDBase: 40, Seed: 9, InitialShares: shares})
	if err != nil {
		t.Fatal(err)
	}
	large, err := nc.NewFleet(FleetSpec{N: 200, IDBase: 40, Seed: 9, InitialShares: shares})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, fv := range large {
		d := int(fv.Agent.Decision())
		seen[d] = true
		if i < len(small) && int(small[i].Agent.Decision()) != d {
			t.Errorf("vehicle %d starts at %d in a fleet of %d, at %d in a fleet of %d",
				fv.Agent.Profile.ID, small[i].Agent.Decision(), len(small), d, len(large))
		}
	}
	if len(seen) < 6 {
		t.Errorf("200 vehicles drew only decisions %v from %v", seen, shares)
	}
}
