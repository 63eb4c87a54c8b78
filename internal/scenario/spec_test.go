package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGoldenSpecsRoundTrip: every checked-in scenario parses and validates
// unedited — the catalog doubles as the parser's golden corpus.
func TestGoldenSpecsRoundTrip(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".yaml" {
			continue
		}
		seen++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseSpec(data); err != nil { // parses, then Validates
				t.Fatalf("ParseSpec: %v", err)
			}
		})
	}
	if seen < 4 {
		t.Fatalf("only %d specs in %s — the golden corpus is missing", seen, dir)
	}
}

// validSpec is the smallest spec every validation case perturbs.
func validSpec() *Spec {
	return &Spec{
		Version:  SpecVersion,
		Name:     "t",
		Seed:     7,
		Rounds:   10,
		Topology: Topology{Regions: 2},
		Cohorts:  []Cohort{{Name: "taxis", Kind: KindTaxi, PerRegion: 4}},
	}
}

func TestValidSpecPasses(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	for _, c := range []struct{ name, doc, field string }{
		{"top-level typo", "verion: 1\nname: typo\nrounds: 5\n", "verion"},
		{"nested typo", "version: 1\nname: typo\nrounds: 5\ncloud:\n  fixed_lagg: 8\n", "fixed_lagg"},
		// There is one wire format, so there is no codec to pick.
		{"bad codec", "version: 1\nname: c\nrounds: 5\ntopology:\n  codec: binary\n", "codec"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), "unknown field") || !strings.Contains(err.Error(), c.field) {
				t.Errorf("ParseSpec = %v, want an unknown-field rejection naming %q", err, c.field)
			}
		})
	}
}

func TestVersionGate(t *testing.T) {
	for _, doc := range []string{
		"version: 2\nname: future\nrounds: 5\ntopology:\n  regions: 1\ncohorts:\n  - name: a\n    kind: taxi\n    per_region: 1\n",
		// No version at all is version 0 — also rejected.
		"name: unversioned\nrounds: 5\ntopology:\n  regions: 1\ncohorts:\n  - name: a\n    kind: taxi\n    per_region: 1\n",
	} {
		_, err := ParseSpec([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), "this build reads version") {
			t.Errorf("version gate error = %v, want version rejection", err)
		}
	}
}

func TestParseJSONSuperset(t *testing.T) {
	doc := `{"version": 1, "name": "json", "rounds": 3,
		"topology": {"regions": 1},
		"cloud": {"round_deadline": "150ms"},
		"cohorts": [{"name": "a", "kind": "taxi", "per_region": 2}]}`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatalf("JSON spec rejected: %v", err)
	}
	if spec.Cloud.RoundDeadline != Duration(150*time.Millisecond) {
		t.Errorf("round_deadline = %v, want 150ms", time.Duration(spec.Cloud.RoundDeadline))
	}
}

func TestBadDurationRejected(t *testing.T) {
	doc := "version: 1\nname: d\nrounds: 5\ntopology:\n  regions: 1\ncloud:\n  round_deadline: fast\ncohorts:\n  - name: a\n    kind: taxi\n    per_region: 1\n"
	if _, err := ParseSpec([]byte(doc)); err == nil {
		t.Error("malformed duration accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	lo := func(v float64) *float64 { return &v }
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"zero rounds", func(s *Spec) { s.Rounds = 0 }, "rounds must be >= 1"},
		{"bad network", func(s *Spec) { s.Topology.Network = "carrier-pigeon" }, "want inproc or tcp"},
		{"zero regions", func(s *Spec) { s.Topology.Regions = 0 }, "topology.regions"},
		{"bad graph", func(s *Spec) { s.Topology.Graph = "torus" }, "topology.graph"},
		{"shards exceed regions", func(s *Spec) { s.Topology.Shards = 3 }, "a shard would own no regions"},
		{"x0 out of range", func(s *Spec) { s.Cloud.X0 = 1.5 }, "cloud.x0"},
		{"lambda out of range", func(s *Spec) { s.Cloud.Lambda = 2 }, "cloud.lambda"},
		{"bound with both selectors", func(s *Spec) {
			s.Cloud.Field = &FieldSpec{Bounds: []BoundSpec{{Decision: 1, Sensor: "camera", Lo: lo(0.1)}}}
		}, "not both"},
		{"bound with no selector", func(s *Spec) {
			s.Cloud.Field = &FieldSpec{Bounds: []BoundSpec{{Lo: lo(0.1)}}}
		}, "one of decision or sensor is required"},
		{"bound with no side", func(s *Spec) {
			s.Cloud.Field = &FieldSpec{Bounds: []BoundSpec{{Decision: 1}}}
		}, "one of lo or hi is required"},
		{"bound lo above hi", func(s *Spec) {
			s.Cloud.Field = &FieldSpec{Bounds: []BoundSpec{{Decision: 1, Lo: lo(0.9), Hi: lo(0.1)}}}
		}, "lo 0.9 > hi 0.1"},
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "at least one cohort"},
		{"duplicate cohort", func(s *Spec) {
			s.Cohorts = append(s.Cohorts, Cohort{Name: "taxis", Kind: KindTransit, PerRegion: 1})
		}, "duplicate cohort name"},
		{"unknown kind", func(s *Spec) { s.Cohorts[0].Kind = "hovercraft" }, "unknown cohort kind"},
		{"rsu with vehicles", func(s *Spec) {
			s.Cohorts = append(s.Cohorts, Cohort{Name: "roadside", Kind: KindRSU, PerRegion: 3})
		}, "per_region must be 0"},
		{"sensors on taxi", func(s *Spec) { s.Cohorts[0].Sensors = []string{"camera"} }, "only for rsu cohorts"},
		{"rsu-only fleet", func(s *Spec) {
			s.Cohorts = []Cohort{{Name: "roadside", Kind: KindRSU}}
		}, "nothing to census"},
		{"cohort region out of range", func(s *Spec) { s.Cohorts[0].Regions = []int{5} }, "region 5 out of 0..1"},
		{"fault prob out of range", func(s *Spec) {
			s.Cohorts[0].Fault = &FaultSpec{DropProb: 1.5}
		}, "drop_prob"},
		{"fault delay inverted", func(s *Spec) {
			s.Cohorts[0].Fault = &FaultSpec{MinDelay: Duration(time.Second), MaxDelay: Duration(time.Millisecond)}
		}, "min_delay"},
		{"unknown link", func(s *Spec) {
			s.Links = []LinkFault{{Link: "vehicle_moon"}}
		}, "want edge_cloud or shard_aggregator"},
		{"shard link without shards", func(s *Spec) {
			s.Links = []LinkFault{{Link: "shard_aggregator"}}
		}, "topology.shards > 1"},
		{"event round out of range", func(s *Spec) {
			s.Cloud.RoundDeadline = Duration(time.Second)
			s.Events = []Event{{Round: 10, Action: "outage", Target: "region:0"}}
		}, "round 10 out of 0..9"},
		{"until before round", func(s *Spec) {
			s.Cloud.RoundDeadline = Duration(time.Second)
			s.Events = []Event{{Round: 5, Until: 5, Action: "outage", Target: "region:0"}}
		}, "until 5 must be after round 5"},
		{"outage wrong target", func(s *Spec) {
			s.Cloud.RoundDeadline = Duration(time.Second)
			s.Events = []Event{{Round: 1, Action: "outage", Target: "edge:0"}}
		}, "outage targets region:N"},
		{"outage without deadline", func(s *Spec) {
			s.Events = []Event{{Round: 1, Action: "outage", Target: "region:0"}}
		}, "need cloud.round_deadline > 0"},
		{"shard kill without shards", func(s *Spec) {
			s.Cloud.RoundDeadline = Duration(time.Second)
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Action: "kill", Target: "shard:0"}}
		}, "shard kills need topology.shards > 1"},
		{"shard kill without durable", func(s *Spec) {
			s.Topology.Shards = 2
			s.Cloud.RoundDeadline = Duration(time.Second)
			s.Events = []Event{{Round: 1, Action: "kill", Target: "shard:0"}}
		}, "shard kills need cloud.durable"},
		{"surge unknown cohort", func(s *Spec) {
			s.Events = []Event{{Round: 1, Action: "surge", Cohort: "ghosts", Count: 5}}
		}, "surge needs cohort naming an existing cohort"},
		{"surge zero count", func(s *Spec) {
			s.Events = []Event{{Round: 1, Action: "surge", Cohort: "taxis"}}
		}, "surge count must be >= 1"},
		{"unknown action", func(s *Spec) {
			s.Events = []Event{{Round: 1, Action: "meteor"}}
		}, "unknown action"},
		{"hash-equal with deadline", func(s *Spec) {
			s.Cloud.RoundDeadline = Duration(time.Second)
			s.Verdict.RequireHashEqual = true
		}, "needs cloud.round_deadline 0"},
		{"hash-equal with cohort fault", func(s *Spec) {
			s.Cohorts[0].Fault = &FaultSpec{DupProb: 0.1}
			s.Verdict.RequireHashEqual = true
		}, "forbids cohort faults"},
		{"hash-equal with link drops", func(s *Spec) {
			s.Links = []LinkFault{{Link: "edge_cloud", Fault: FaultSpec{DropProb: 0.1}}}
			s.Verdict.RequireHashEqual = true
		}, "forbids link drops"},
		{"gossip hoods exceed regions", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{Neighborhoods: 3}
		}, "exceeds regions"},
		{"gossip with shards", func(s *Spec) {
			s.Topology.Shards = 2
			s.Topology.Gossip = &GossipSpec{}
		}, "incompatible with topology.shards"},
		{"gossip with leases", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{}
			s.Cloud.LeaseTTL = Duration(time.Second)
		}, "forbids cloud.lease_ttl"},
		{"partition without gossip", func(s *Spec) {
			s.Events = []Event{{Round: 1, Action: "partition", Target: "cloud"}}
		}, "need topology.gossip"},
		{"partition wrong target", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{}
			s.Events = []Event{{Round: 1, Action: "partition", Target: "region:0"}}
		}, `partition targets "cloud"`},
		{"gossip outage without gossip deadline", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{}
			s.Events = []Event{{Round: 1, Action: "outage", Target: "region:0"}}
		}, "need topology.gossip.deadline > 0"},
		{"gossip edge kill without durable", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{Deadline: Duration(time.Second)}
			s.Events = []Event{{Round: 1, Action: "kill", Target: "edge:1"}}
		}, "edge kills under gossip need cloud.durable"},
		{"gossip leader kill without failover", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{Deadline: Duration(time.Second)}
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Action: "kill", Target: "edge:0"}}
		}, "set topology.gossip.failover_ttl"},
		{"negative failover ttl", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(-time.Second)}
		}, "failover_ttl must be >= 0"},
		{"negative max backlog", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{MaxBacklog: -1}
		}, "max_backlog must be >= 0"},
		{"leader-kill without gossip", func(s *Spec) {
			s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "hood:0"}}
		}, "leader-kill events need topology.gossip"},
		{"leader-kill without failover ttl", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{}
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "hood:0"}}
		}, "failover_ttl > 0"},
		{"leader-kill without durable", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(time.Second)}
			s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "hood:0"}}
		}, "leader-kill events need cloud.durable"},
		{"leader-kill wrong target", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(time.Second)}
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "edge:0"}}
		}, "leader-kill targets hood:N"},
		{"leader-kill hood out of range", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(time.Second)}
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "hood:3"}}
		}, "neighborhood 3 out of 0..0"},
		{"leader-kill single-member hood", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{Neighborhoods: 2, FailoverTTL: Duration(time.Second)}
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "hood:0"}}
		}, "no successor to promote"},
		{"leader-kill with until", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(time.Second)}
			s.Cloud.Durable = true
			s.Events = []Event{{Round: 1, Until: 3, Action: "leader-kill", Target: "hood:0"}}
		}, "atomic at its round boundary"},
		{"failover floor without failover", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{}
			s.Verdict.MinGossipFailovers = 1
		}, "needs topology.gossip.failover_ttl > 0"},
		{"hash-equal with backlog cap", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(time.Second), MaxBacklog: 4}
			s.Verdict.RequireHashEqual = true
		}, "forbids topology.gossip.max_backlog"},
		{"hash-equal with gossip deadline", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{Deadline: Duration(time.Second)}
			s.Verdict.RequireHashEqual = true
		}, "needs topology.gossip.deadline 0"},
		{"partition-rounds floor without partition", func(s *Spec) {
			s.Topology.Gossip = &GossipSpec{}
			s.Verdict.MinPartitionLocalRounds = 5
		}, "needs a partition event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestValidateReportsAllProblems: a spec with several defects yields one
// error listing each — the single-pass-fix contract.
func TestValidateReportsAllProblems(t *testing.T) {
	s := validSpec()
	s.Name = ""
	s.Rounds = 0
	s.Topology.Regions = 0
	err := s.Validate()
	if err == nil {
		t.Fatal("triply broken spec accepted")
	}
	for _, want := range []string{"name is required", "rounds must be >= 1", "topology.regions"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error is missing %q:\n%v", want, err)
		}
	}
}

// TestLeaderKillAccepted: with failover enabled, both a plain kill of the
// neighborhood leader and the atomic leader-kill event validate — and
// leader-kill stays legal under require_hash_equal, since the handoff loses
// no census.
func TestLeaderKillAccepted(t *testing.T) {
	s := validSpec()
	s.Topology.Gossip = &GossipSpec{Deadline: Duration(time.Second), FailoverTTL: Duration(200 * time.Millisecond)}
	s.Cloud.Durable = true
	s.Events = []Event{{Round: 1, Action: "kill", Target: "edge:0", Until: 4}}
	if err := s.Validate(); err != nil {
		t.Fatalf("leader kill with failover_ttl rejected: %v", err)
	}

	s = validSpec()
	s.Topology.Gossip = &GossipSpec{FailoverTTL: Duration(200 * time.Millisecond)}
	s.Cloud.Durable = true
	s.Events = []Event{{Round: 1, Action: "leader-kill", Target: "hood:0"}}
	s.Verdict.RequireHashEqual = true
	s.Verdict.MinGossipFailovers = 1
	if err := s.Validate(); err != nil {
		t.Fatalf("leader-kill under require_hash_equal rejected: %v", err)
	}
	twin := s.LosslessTwin()
	if len(twin.Events) != 0 {
		t.Errorf("lossless twin kept %d events, want leader-kill stripped", len(twin.Events))
	}
}

// TestRequireHashEqualImpliesCompare: the implied baseline run is a fill
// rule, not a validation error.
func TestRequireHashEqualImpliesCompare(t *testing.T) {
	s := validSpec()
	s.Verdict.RequireHashEqual = true
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Verdict.CompareLossless {
		t.Error("require_hash_equal did not switch compare_lossless on")
	}
}

func TestLosslessTwinStripsPerturbations(t *testing.T) {
	s := validSpec()
	s.Cloud.RoundDeadline = Duration(time.Second)
	s.Cohorts[0].Fault = &FaultSpec{DropProb: 0.1}
	s.Links = []LinkFault{{Link: "edge_cloud", Fault: FaultSpec{DropProb: 0.2}}}
	s.Events = []Event{
		{Round: 1, Action: "outage", Target: "region:0", Until: 3},
		{Round: 2, Action: "surge", Cohort: "taxis", Count: 5},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	twin := s.LosslessTwin()
	if twin.Cohorts[0].Fault != nil {
		t.Error("twin kept a cohort fault")
	}
	if len(twin.Links) != 0 {
		t.Error("twin kept link faults")
	}
	for _, e := range twin.Events {
		if e.Action != "surge" {
			t.Errorf("twin kept a %s event", e.Action)
		}
	}
	if len(twin.Events) != 1 {
		t.Errorf("twin has %d events, want the surge only", len(twin.Events))
	}
	// The original spec is untouched.
	if s.Cohorts[0].Fault == nil || len(s.Links) != 1 || len(s.Events) != 2 {
		t.Error("LosslessTwin mutated the source spec")
	}
}
