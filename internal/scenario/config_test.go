package scenario

import (
	"strings"
	"testing"

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
