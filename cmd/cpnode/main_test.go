package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// parse runs args through a fresh copy of cpnode's real flag set.
func parse(t *testing.T, args ...string) (*scenario.NodeConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("cpnode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := newNodeFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.config()
}

// TestRejectsForeignFlags: a flag set on a role that does not consume it is
// an error naming the flag and the roles that do, not a silently dead knob.
func TestRejectsForeignFlags(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		flag      string
		wantRoles string
	}{
		{"fixed-lag on edge", []string{"-role", "edge", "-fixed-lag", "8"}, "fixed-lag", "aggregator, cloud"},
		{"rounds on cloud", []string{"-role", "cloud", "-rounds", "10"}, "rounds", "edge"},
		{"listen on vehicles", []string{"-role", "vehicles", "-listen", "127.0.0.1:0"}, "listen", "aggregator, cloud, edge, shard"},
		{"edge addr on cloud", []string{"-role", "cloud", "-edge", "127.0.0.1:7100"}, "edge", "vehicles"},
		{"x0 on shard", []string{"-role", "shard", "-shards", "1", "-x0", "0.5"}, "x0", "aggregator, cloud, edge"},
		{"shard-id on aggregator", []string{"-role", "aggregator", "-shard-id", "1"}, "shard-id", "shard"},
		{"state-dir on vehicles", []string{"-role", "vehicles", "-state-dir", "/tmp/x"}, "state-dir", "aggregator, cloud, edge, shard"},
		{"unknown role", []string{"-role", "satellite"}, "satellite", "cloud, aggregator, shard, edge, or vehicles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.args...)
			if err == nil {
				t.Fatalf("cpnode %v accepted", tc.args)
			}
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("%q", tc.flag)) {
				t.Errorf("error %v does not name %q", err, tc.flag)
			}
			if !strings.Contains(msg, tc.wantRoles) {
				t.Errorf("error %v does not list the applicable roles (%s)", err, tc.wantRoles)
			}
		})
	}
}

// TestFlagsSetConfigFields: set flags land in their NodeConfig fields, unset
// ones keep the Defaults value, and any -fault-* flag installs a profile.
func TestFlagsSetConfigFields(t *testing.T) {
	nc, err := parse(t, "-role", "cloud", "-regions", "4", "-x0", "0.5", "-fixed-lag", "8",
		"-round-deadline", "150ms", "-io-timeout", "2s", "-seed", "9", "-fault-dup", "0.25")
	if err != nil {
		t.Fatal(err)
	}
	if nc.Role != scenario.RoleCloud || nc.Regions != 4 || nc.X0 != 0.5 || nc.FixedLag != 8 ||
		nc.RoundDeadline != 150*time.Millisecond || nc.IOTimeout != 2*time.Second {
		t.Errorf("flags not applied: %+v", nc)
	}
	if nc.Lambda != 0.1 || nc.TargetX != 0.85 {
		t.Errorf("defaults clobbered: lambda=%v target-x=%v", nc.Lambda, nc.TargetX)
	}
	if nc.Fault == nil || nc.Fault.DupProb != 0.25 || nc.Fault.Seed != 9 {
		t.Errorf("fault profile = %+v, want dup 0.25 seeded 9", nc.Fault)
	}
	if nc, err = parse(t, "-role", "cloud"); err != nil || nc.Fault != nil {
		t.Errorf("no -fault-* flag: fault = %+v, err = %v", nc.Fault, err)
	}
}

// TestEveryFlagDeclaresRolesAndDefaults: every flag but the role-agnostic
// ones lists its consuming roles, is bound to exactly one NodeConfig field,
// and advertises that field's Defaults value as its default.
func TestEveryFlagDeclaresRolesAndDefaults(t *testing.T) {
	fs := flag.NewFlagSet("cpnode", flag.ContinueOnError)
	f := newNodeFlags(fs)
	defaults := reflect.ValueOf(scenario.Defaults("")).Elem()
	bound := reflect.ValueOf(f.nc).Elem()
	changed := func() (fields []string) {
		for i := 0; i < bound.NumField(); i++ {
			if !reflect.DeepEqual(bound.Field(i).Interface(), defaults.Field(i).Interface()) {
				fields = append(fields, bound.Type().Field(i).Name)
			}
		}
		return fields
	}
	if got := changed(); got != nil {
		t.Fatalf("registering flags changed %v", got)
	}
	seen := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) {
		switch fl.Name {
		case "role", "metrics", "fault-drop", "fault-delay", "fault-dup":
			return
		}
		if len(f.roles[fl.Name]) == 0 {
			t.Errorf("-%s lists no consuming role", fl.Name)
		}
		if fs.Set(fl.Name, "7") != nil {
			if err := fs.Set(fl.Name, "7s"); err != nil {
				t.Fatalf("-%s: %v", fl.Name, err)
			}
		}
		fields := changed()
		if len(fields) != 1 {
			t.Fatalf("-%s changed fields %v, want exactly one", fl.Name, fields)
		}
		field := fields[0]
		if prev, dup := seen[field]; dup {
			t.Errorf("-%s and -%s are both bound to %s", prev, fl.Name, field)
		}
		seen[field] = fl.Name
		if want := fmt.Sprint(defaults.FieldByName(field).Interface()); fl.DefValue != want {
			t.Errorf("-%s default %q, want Defaults().%s = %q", fl.Name, fl.DefValue, field, want)
		}
		bound.FieldByName(field).Set(defaults.FieldByName(field))
	})
}
