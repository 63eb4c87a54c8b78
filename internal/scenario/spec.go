package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gossip"
	"repro/internal/lattice"
	"repro/internal/policy"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// SpecVersion is the scenario format this build reads. Bump it when a
// field changes meaning; old specs are rejected, never silently
// reinterpreted.
const SpecVersion = 1

// Spec is one declarative scenario: a consensus tier topology, a fleet
// mix, fault profiles, timed events, and the verdict the run is judged by.
// Specs are versioned YAML (or JSON) documents; ParseSpec rejects unknown
// fields so a typo never silently becomes a default.
type Spec struct {
	// Version gates the format (must equal SpecVersion).
	Version int `json:"version"`
	// Name identifies the scenario in verdicts and bench series.
	Name string `json:"name"`
	// Seed drives every RNG in the run; the CLI -seed flag overrides it.
	Seed int64 `json:"seed"`
	// Rounds is the exact number of consensus rounds executed — no early
	// exit, so one spec always folds the same trajectory.
	Rounds int `json:"rounds"`

	Topology Topology    `json:"topology"`
	Cloud    CloudSpec   `json:"cloud"`
	Cohorts  []Cohort    `json:"cohorts"`
	Links    []LinkFault `json:"links"`
	Events   []Event     `json:"events"`
	Verdict  VerdictSpec `json:"verdict"`
}

// Topology fixes the tier shape and transports.
type Topology struct {
	// Network is "inproc" (default; one process, named in-memory links) or
	// "tcp" (real loopback sockets through the full wire protocol).
	Network string `json:"network"`
	// Regions is the number of regions, one edge server each.
	Regions int `json:"regions"`
	// Graph names the region coupling: "demo" (dense) or "cycle" (sparse).
	Graph string `json:"graph"`
	// Shards > 1 interposes the sharded consensus tier: a rendezvous ring
	// of shard coordinators batching censuses up to a thin aggregator.
	Shards int `json:"shards"`
	// Gossip switches the edges into the edge-local gossip data plane:
	// neighborhoods of edges run consensus rounds among themselves and
	// escalate compacted digests to the cloud, which becomes a slow control
	// plane (incompatible with shards > 1 and lease_ttl).
	Gossip *GossipSpec `json:"gossip"`
}

// GossipSpec parameterizes the edge-local gossip data plane.
type GossipSpec struct {
	// Neighborhoods partitions the regions into this many gossip
	// neighborhoods through the shard rendezvous ring, so membership is a
	// pure function of (regions, neighborhoods) (default 1).
	Neighborhoods int `json:"neighborhoods"`
	// EscalateEvery is K: each neighborhood leader escalates a digest to
	// the cloud after every K-th completed local round (default 1).
	EscalateEvery int `json:"escalate_every"`
	// Deadline bounds each local round barrier: a round missing members
	// past it completes degraded. Zero waits forever — fully deterministic,
	// but outage/kill events then need a deadline or the neighborhood
	// stalls.
	Deadline Duration `json:"deadline"`
	// FailoverTTL enables leader failover: every member tracks the leader's
	// heartbeat lease and, when it lapses for a full TTL, promotes the next
	// member in ring order and drains the escalation backlog it mirrored.
	// Zero keeps leadership static (killing a leader then loses the
	// backlog, so Validate rejects it).
	FailoverTTL Duration `json:"failover_ttl"`
	// MaxBacklog caps each member's mirrored escalation backlog; when a
	// partition outlasts the cap the oldest unacked rounds are shed (they
	// never reach the cloud, so hash-equal verdicts forbid a cap). Zero is
	// unbounded.
	MaxBacklog int `json:"max_backlog"`
}

// CloudSpec parameterizes the aggregation tier: the FDS controller, the
// desired field, and the durability/rewind machinery.
type CloudSpec struct {
	// X0 is the initial sharing ratio everywhere (default 0.3).
	X0 float64 `json:"x0"`
	// TargetX, Eps band the probe-derived desired field when no explicit
	// Field is given (defaults 0.85, 0.05).
	TargetX float64 `json:"target_x"`
	Eps     float64 `json:"eps"`
	// Lambda is the FDS per-round ratio step limit (default 0.1).
	Lambda float64 `json:"lambda"`
	// Beta is the per-region rationality coefficient (default 4).
	Beta float64 `json:"beta"`
	// FixedLag keeps this many rounds of fold state rewindable, so late or
	// reordered censuses repair the published field.
	FixedLag int `json:"fixed_lag"`
	// RoundDeadline bounds the census barrier; zero waits forever (every
	// round folds a full quorum). Specs with outage or kill events must
	// set it, or a missing region would stall the fold.
	RoundDeadline Duration `json:"round_deadline"`
	// LeaseTTL enables edge membership leases: edges heartbeat, and a
	// silent edge is evicted from the barrier quorum.
	LeaseTTL Duration `json:"lease_ttl"`
	// Durable checkpoints and journals consensus state (in a run-scoped
	// temp dir), so kill events recover instead of restarting cold.
	Durable bool `json:"durable"`
	// Field, when set, replaces the TargetX probe with explicit per-decision
	// bounds (the operator states intent, e.g. a camera floor in fog).
	Field *FieldSpec `json:"field"`
}

// FieldSpec is a declarative desired decision field: a list of bounds
// applied to every region.
type FieldSpec struct {
	Bounds []BoundSpec `json:"bounds"`
}

// BoundSpec bounds the population share of one decision (1..K) or of
// every decision sharing one sensor ("camera", "lidar", "radar"). Exactly
// one selector must be set; omitted Lo/Hi sides stay free.
type BoundSpec struct {
	Decision int      `json:"decision"`
	Sensor   string   `json:"sensor"`
	Lo       *float64 `json:"lo"`
	Hi       *float64 `json:"hi"`
}

// Cohort is one homogeneous slice of the fleet, attached to every region
// (or the listed ones).
type Cohort struct {
	// Name identifies the cohort (unique; surge events reference it).
	Name string `json:"name"`
	// Kind picks the sensor profile: "taxi" (full suite), "transit"
	// (camera+lidar buses), or "rsu" (no vehicles — the region's edge
	// contributes fixed road-side perception instead).
	Kind string `json:"kind"`
	// PerRegion is the cohort's vehicle count per region (0 for rsu).
	PerRegion int `json:"per_region"`
	// Regions restricts the cohort to these region indices (empty = all).
	Regions []int `json:"regions"`
	// Mu is the per-round revision probability (default 0.5).
	Mu float64 `json:"mu"`
	// Tau is the agents' choice temperature (default 0.25).
	Tau float64 `json:"tau"`
	// Beta overrides the cloud's rationality coefficient for this cohort.
	Beta float64 `json:"beta"`
	// PrivacyWeightStd spreads per-vehicle privacy weights around 1.
	PrivacyWeightStd float64 `json:"privacy_weight_std"`
	// Sensors, for rsu cohorts, lists the road-side modalities contributed
	// (default all).
	Sensors []string `json:"sensors"`
	// Fault injects faults on this cohort's vehicle->edge links.
	Fault *FaultSpec `json:"fault"`
}

// LinkFault injects faults on one tier link class.
type LinkFault struct {
	// Link is "edge_cloud" (census reports + corrections + heartbeats) or
	// "shard_aggregator" (batch forwarding; sharded topologies only).
	Link string `json:"link"`
	// Regions restricts edge_cloud faults to these edges (empty = all).
	Regions []int     `json:"regions"`
	Fault   FaultSpec `json:"fault"`
}

// FaultSpec mirrors transport.FaultConfig with spec-friendly durations.
type FaultSpec struct {
	// Seed, when zero, derives from the spec seed.
	Seed            int64    `json:"seed"`
	DropProb        float64  `json:"drop_prob"`
	DupProb         float64  `json:"dup_prob"`
	MinDelay        Duration `json:"min_delay"`
	MaxDelay        Duration `json:"max_delay"`
	DisconnectAfter int      `json:"disconnect_after"`
	AcceptFailProb  float64  `json:"accept_fail_prob"`
}

// Config converts the spec fault into the injector's config.
func (f *FaultSpec) Config(defaultSeed int64) *transport.FaultConfig {
	if f == nil {
		return nil
	}
	seed := f.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return &transport.FaultConfig{
		Seed:            seed,
		DropProb:        f.DropProb,
		DupProb:         f.DupProb,
		MinDelay:        time.Duration(f.MinDelay),
		MaxDelay:        time.Duration(f.MaxDelay),
		DisconnectAfter: f.DisconnectAfter,
		AcceptFailProb:  f.AcceptFailProb,
	}
}

// Event is a timed perturbation, applied at the start of its round.
type Event struct {
	// Round the event fires on (0-based, < Rounds).
	Round int `json:"round"`
	// Action is "outage" (a region goes silent: no reports, no
	// heartbeats), "kill" (tear a component down mid-run), "surge"
	// (extra vehicles arrive), "partition" (gossip topologies: the
	// cloud becomes unreachable; edges keep folding local rounds and the
	// escalation backlog drains on heal), or "leader-kill" (gossip
	// topologies with failover_ttl: the neighborhood's current leader is
	// killed at a round boundary, the runner waits for the ring successor
	// to promote, then restarts the dead node from its journal and waits
	// for it to rejoin as a follower — no census is lost, so the action is
	// legal under require_hash_equal).
	Action string `json:"action"`
	// Target for outage is "region:N"; for kill, "edge:N" or "shard:N";
	// for partition, the literal "cloud"; for leader-kill, "hood:N".
	Target string `json:"target"`
	// Until, when > Round, ends the outage / restarts the killed component
	// at that round; zero makes it permanent.
	Until int `json:"until"`
	// Cohort names the cohort template a surge clones.
	Cohort string `json:"cohort"`
	// Count is the surge's vehicle count per region.
	Count int `json:"count"`
}

// TargetKind splits "edge:3" into ("edge", 3).
func (e *Event) TargetKind() (string, int, error) {
	kind, idx, ok := strings.Cut(e.Target, ":")
	if !ok {
		return "", 0, fmt.Errorf("target %q: want kind:index", e.Target)
	}
	n, err := strconv.Atoi(idx)
	if err != nil {
		return "", 0, fmt.Errorf("target %q: bad index: %v", e.Target, err)
	}
	return kind, n, nil
}

// VerdictSpec declares what the run must satisfy; violated expectations
// fail the verdict (cmd/scenario exits 2).
type VerdictSpec struct {
	// RequireConverged demands the final fold satisfy the desired field.
	RequireConverged bool `json:"require_converged"`
	// CompareLossless reruns the spec with faults, outages, and kills
	// stripped (surges kept) and reports the twin's hash and welfare as
	// the baseline.
	CompareLossless bool `json:"compare_lossless"`
	// RequireHashEqual demands consensus_state_hash equal the lossless
	// twin's (implies CompareLossless).
	RequireHashEqual bool `json:"require_hash_equal"`
	// MaxDegradedRounds bounds degraded (deadline-fired) rounds; nil
	// leaves them unbounded.
	MaxDegradedRounds *int `json:"max_degraded_rounds"`
	// MinRewinds demands the rewind machinery actually engaged.
	MinRewinds int `json:"min_rewinds"`
	// MinRecoveries demands at least this many durable restarts.
	MinRecoveries int `json:"min_recoveries"`
	// MinPartitionLocalRounds demands the gossip data plane completed at
	// least this many local rounds while the cloud was partitioned away —
	// the edge-autonomy witness (needs a partition event).
	MinPartitionLocalRounds int `json:"min_partition_local_rounds"`
	// MinGossipFailovers demands at least this many leadership promotions —
	// the failover witness (needs gossip with failover_ttl > 0).
	MinGossipFailovers int `json:"min_gossip_failovers"`
}

// Duration marshals as a time.ParseDuration string ("150ms", "5s").
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration: want a string like \"150ms\", got %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Cohort kinds.
const (
	KindTaxi    = "taxi"
	KindTransit = "transit"
	KindRSU     = "rsu"
)

// Masks resolves the cohort kind to (equipped, desired) sensor masks.
func (c *Cohort) Masks() (sensor.Mask, sensor.Mask, error) {
	switch c.Kind {
	case KindTaxi:
		return sensor.MaskAll, sensor.MaskAll, nil
	case KindTransit:
		return sensor.MaskOf(sensor.Camera, sensor.LiDAR), sensor.MaskAll, nil
	case KindRSU:
		mask := sensor.MaskAll
		if len(c.Sensors) > 0 {
			mask = 0
			for _, name := range c.Sensors {
				s, err := sensorByName(name)
				if err != nil {
					return 0, 0, err
				}
				mask |= sensor.MaskOf(s)
			}
		}
		return mask, 0, nil
	default:
		return 0, 0, fmt.Errorf("unknown cohort kind %q (want taxi, transit, or rsu)", c.Kind)
	}
}

func sensorByName(name string) (sensor.Type, error) {
	switch name {
	case "camera":
		return sensor.Camera, nil
	case "lidar":
		return sensor.LiDAR, nil
	case "radar":
		return sensor.Radar, nil
	default:
		return 0, fmt.Errorf("unknown sensor %q (want camera, lidar, or radar)", name)
	}
}

// CompileField turns a declarative FieldSpec into a policy field over m
// regions and the paper lattice's K decisions.
func (fs *FieldSpec) Compile(m int) (*policy.Field, error) {
	lat := lattice.NewPaper()
	k := lat.K()
	field := policy.NewFreeField(m, k)
	for bi, b := range fs.Bounds {
		var decisions []int
		switch {
		case b.Decision != 0:
			decisions = []int{b.Decision - 1}
		case b.Sensor != "":
			s, err := sensorByName(b.Sensor)
			if err != nil {
				return nil, fmt.Errorf("field bound %d: %w", bi, err)
			}
			for d := 1; d <= k; d++ {
				if lat.MustShare(lattice.Decision(d)).Has(s) {
					decisions = append(decisions, d-1)
				}
			}
		}
		for _, d := range decisions {
			for i := 0; i < m; i++ {
				if b.Lo != nil {
					field.P[i][d].Lo = *b.Lo
				}
				if b.Hi != nil {
					field.P[i][d].Hi = *b.Hi
				}
			}
		}
	}
	return field, nil
}

// fill applies spec defaults in place (called by Validate, so a parsed
// spec is always fully populated).
func (s *Spec) fill() {
	if s.Topology.Network == "" {
		s.Topology.Network = "inproc"
	}
	if s.Topology.Graph == "" {
		s.Topology.Graph = "demo"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Cloud.X0 == 0 {
		s.Cloud.X0 = 0.3
	}
	if s.Cloud.TargetX == 0 {
		s.Cloud.TargetX = 0.85
	}
	if s.Cloud.Eps == 0 {
		s.Cloud.Eps = 0.05
	}
	if s.Cloud.Lambda == 0 {
		s.Cloud.Lambda = 0.1
	}
	if s.Cloud.Beta == 0 {
		s.Cloud.Beta = 4
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Mu == 0 {
			c.Mu = 0.5
		}
		if c.Tau == 0 {
			c.Tau = DemoTau
		}
		if c.Beta == 0 {
			c.Beta = s.Cloud.Beta
		}
	}
	if g := s.Topology.Gossip; g != nil {
		if g.Neighborhoods == 0 {
			g.Neighborhoods = 1
		}
		if g.EscalateEvery == 0 {
			g.EscalateEvery = 1
		}
	}
	if s.Verdict.RequireHashEqual {
		s.Verdict.CompareLossless = true
	}
}

// Validate checks the spec (after applying defaults) and returns every
// problem joined into one error, so an operator fixes a bad spec in one
// pass.
func (s *Spec) Validate() error {
	s.fill()
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	if s.Version != SpecVersion {
		bad("version %d: this build reads version %d", s.Version, SpecVersion)
	}
	if s.Name == "" {
		bad("name is required")
	}
	if s.Rounds < 1 {
		bad("rounds must be >= 1 (got %d)", s.Rounds)
	}

	t := &s.Topology
	if t.Network != "inproc" && t.Network != "tcp" {
		bad("topology.network %q: want inproc or tcp", t.Network)
	}
	if t.Regions < 1 {
		bad("topology.regions must be >= 1 (got %d)", t.Regions)
	}
	if _, err := GraphByName(t.Graph, max(t.Regions, 1)); err != nil {
		bad("topology.graph: %v", err)
	}
	if t.Shards < 0 {
		bad("topology.shards must be >= 0 (got %d)", t.Shards)
	}
	if t.Shards > 1 && t.Shards > t.Regions {
		bad("topology.shards %d exceeds regions %d (a shard would own no regions)", t.Shards, t.Regions)
	}
	var hoods [][]int // gossip neighborhood table, for leader-aware checks
	if g := t.Gossip; g != nil {
		if g.Neighborhoods < 1 {
			bad("topology.gossip.neighborhoods must be >= 1 (got %d)", g.Neighborhoods)
		} else if g.Neighborhoods > t.Regions {
			bad("topology.gossip.neighborhoods %d exceeds regions %d", g.Neighborhoods, t.Regions)
		} else if t.Regions >= 1 {
			hoods, _ = gossip.Neighborhoods(t.Regions, g.Neighborhoods)
		}
		if g.EscalateEvery < 1 {
			bad("topology.gossip.escalate_every must be >= 1 (got %d)", g.EscalateEvery)
		}
		if g.Deadline < 0 {
			bad("topology.gossip.deadline must be >= 0")
		}
		if g.FailoverTTL < 0 {
			bad("topology.gossip.failover_ttl must be >= 0")
		}
		if g.MaxBacklog < 0 {
			bad("topology.gossip.max_backlog must be >= 0")
		}
		if t.Shards > 1 {
			bad("topology.gossip is incompatible with topology.shards > 1 (digests go straight to the cloud)")
		}
		if s.Cloud.LeaseTTL != 0 {
			bad("topology.gossip forbids cloud.lease_ttl: neighborhood membership is static, not leased")
		}
	}

	c := &s.Cloud
	if c.X0 < 0 || c.X0 > 1 {
		bad("cloud.x0 %v out of [0,1]", c.X0)
	}
	if c.TargetX < 0 || c.TargetX > 1 {
		bad("cloud.target_x %v out of [0,1]", c.TargetX)
	}
	if c.Eps <= 0 || c.Eps > 1 {
		bad("cloud.eps %v out of (0,1]", c.Eps)
	}
	if c.Lambda <= 0 || c.Lambda > 1 {
		bad("cloud.lambda %v out of (0,1]", c.Lambda)
	}
	if c.Beta <= 0 {
		bad("cloud.beta must be > 0 (got %v)", c.Beta)
	}
	if c.FixedLag < 0 {
		bad("cloud.fixed_lag must be >= 0 (got %d)", c.FixedLag)
	}
	if c.RoundDeadline < 0 {
		bad("cloud.round_deadline must be >= 0")
	}
	if c.LeaseTTL < 0 {
		bad("cloud.lease_ttl must be >= 0")
	}
	if c.Field != nil {
		k := lattice.NewPaper().K()
		for bi, b := range c.Field.Bounds {
			switch {
			case b.Decision != 0 && b.Sensor != "":
				bad("cloud.field.bounds[%d]: set decision or sensor, not both", bi)
			case b.Decision == 0 && b.Sensor == "":
				bad("cloud.field.bounds[%d]: one of decision or sensor is required", bi)
			case b.Decision != 0 && (b.Decision < 1 || b.Decision > k):
				bad("cloud.field.bounds[%d]: decision %d out of 1..%d", bi, b.Decision, k)
			case b.Sensor != "":
				if _, err := sensorByName(b.Sensor); err != nil {
					bad("cloud.field.bounds[%d]: %v", bi, err)
				}
			}
			if b.Lo == nil && b.Hi == nil {
				bad("cloud.field.bounds[%d]: one of lo or hi is required", bi)
			}
			if b.Lo != nil && (*b.Lo < 0 || *b.Lo > 1) {
				bad("cloud.field.bounds[%d]: lo %v out of [0,1]", bi, *b.Lo)
			}
			if b.Hi != nil && (*b.Hi < 0 || *b.Hi > 1) {
				bad("cloud.field.bounds[%d]: hi %v out of [0,1]", bi, *b.Hi)
			}
			if b.Lo != nil && b.Hi != nil && *b.Lo > *b.Hi {
				bad("cloud.field.bounds[%d]: lo %v > hi %v", bi, *b.Lo, *b.Hi)
			}
		}
	}

	if len(s.Cohorts) == 0 {
		bad("at least one cohort is required")
	}
	names := map[string]bool{}
	vehicles := 0
	for ci := range s.Cohorts {
		co := &s.Cohorts[ci]
		where := fmt.Sprintf("cohorts[%d] (%s)", ci, co.Name)
		if co.Name == "" {
			bad("cohorts[%d]: name is required", ci)
		} else if names[co.Name] {
			bad("%s: duplicate cohort name", where)
		}
		names[co.Name] = true
		if _, _, err := co.Masks(); err != nil {
			bad("%s: %v", where, err)
		}
		if co.Kind == KindRSU {
			if co.PerRegion != 0 {
				bad("%s: rsu cohorts are fixed road-side sensors; per_region must be 0 (got %d)", where, co.PerRegion)
			}
		} else {
			if co.PerRegion < 1 {
				bad("%s: per_region must be >= 1 (got %d)", where, co.PerRegion)
			}
			if len(co.Sensors) > 0 {
				bad("%s: sensors is only for rsu cohorts (%s kinds are fixed by kind)", where, co.Kind)
			}
			vehicles += co.PerRegion
		}
		if co.Mu <= 0 || co.Mu > 1 {
			bad("%s: mu %v out of (0,1]", where, co.Mu)
		}
		if co.Tau <= 0 {
			bad("%s: tau must be > 0 (got %v)", where, co.Tau)
		}
		if co.PrivacyWeightStd < 0 {
			bad("%s: privacy_weight_std must be >= 0", where)
		}
		for _, r := range co.Regions {
			if r < 0 || r >= t.Regions {
				bad("%s: region %d out of 0..%d", where, r, t.Regions-1)
			}
		}
		if err := validateFault(co.Fault); err != nil {
			bad("%s: fault: %v", where, err)
		}
	}
	if vehicles == 0 {
		bad("no cohort contributes vehicles (rsu-only fleets have nothing to census)")
	}

	for li := range s.Links {
		l := &s.Links[li]
		where := fmt.Sprintf("links[%d]", li)
		switch l.Link {
		case "edge_cloud":
		case "shard_aggregator":
			if t.Shards <= 1 {
				bad("%s: shard_aggregator faults need topology.shards > 1", where)
			}
			if len(l.Regions) > 0 {
				bad("%s: regions does not apply to shard_aggregator links", where)
			}
		default:
			bad("%s: link %q: want edge_cloud or shard_aggregator", where, l.Link)
		}
		for _, r := range l.Regions {
			if r < 0 || r >= t.Regions {
				bad("%s: region %d out of 0..%d", where, r, t.Regions-1)
			}
		}
		f := l.Fault
		if err := validateFault(&f); err != nil {
			bad("%s: fault: %v", where, err)
		}
	}

	needsDeadline := false
	for ei := range s.Events {
		e := &s.Events[ei]
		where := fmt.Sprintf("events[%d]", ei)
		if e.Round < 0 || e.Round >= s.Rounds {
			bad("%s: round %d out of 0..%d", where, e.Round, s.Rounds-1)
		}
		if e.Until != 0 && e.Until <= e.Round {
			bad("%s: until %d must be after round %d", where, e.Until, e.Round)
		}
		switch e.Action {
		case "outage":
			needsDeadline = true
			kind, n, err := e.TargetKind()
			if err != nil {
				bad("%s: %v", where, err)
			} else if kind != "region" {
				bad("%s: outage targets region:N, got %q", where, e.Target)
			} else if n < 0 || n >= t.Regions {
				bad("%s: region %d out of 0..%d", where, n, t.Regions-1)
			}
		case "kill":
			needsDeadline = true
			kind, n, err := e.TargetKind()
			if err != nil {
				bad("%s: %v", where, err)
				break
			}
			switch kind {
			case "edge":
				if n < 0 || n >= t.Regions {
					bad("%s: edge %d out of 0..%d", where, n, t.Regions-1)
				} else if t.Gossip != nil {
					if !s.Cloud.Durable {
						bad("%s: edge kills under gossip need cloud.durable (a cold node cannot resume its local fold)", where)
					}
					if h := gossip.HoodOf(hoods, n); h >= 0 && hoods[h][0] == n && t.Gossip.FailoverTTL == 0 {
						bad("%s: edge %d leads neighborhood %d and the leader carries the escalation backlog; set topology.gossip.failover_ttl so a successor takes over, or kill a non-leader", where, n, h)
					}
				}
			case "shard":
				if t.Shards <= 1 {
					bad("%s: shard kills need topology.shards > 1", where)
				} else if n < 0 || n >= t.Shards {
					bad("%s: shard %d out of 0..%d", where, n, t.Shards-1)
				}
				if !s.Cloud.Durable {
					bad("%s: shard kills need cloud.durable (a cold shard cannot rejoin the fold)", where)
				}
			default:
				bad("%s: kill targets edge:N or shard:N, got %q", where, e.Target)
			}
		case "leader-kill":
			// No deadline requirement: the kill, the successor promotion, and
			// the journal restart all complete inside one round boundary, so
			// no local round ever barriers on a dead member.
			if t.Gossip == nil {
				bad("%s: leader-kill events need topology.gossip", where)
			} else {
				if t.Gossip.FailoverTTL == 0 {
					bad("%s: leader-kill events need topology.gossip.failover_ttl > 0 (static leadership cannot promote a successor)", where)
				}
				if !s.Cloud.Durable {
					bad("%s: leader-kill events need cloud.durable (the dead leader restarts from its journal)", where)
				}
				kind, n, err := e.TargetKind()
				if err != nil {
					bad("%s: %v", where, err)
				} else if kind != "hood" {
					bad("%s: leader-kill targets hood:N, got %q", where, e.Target)
				} else if n < 0 || n >= t.Gossip.Neighborhoods {
					bad("%s: neighborhood %d out of 0..%d", where, n, t.Gossip.Neighborhoods-1)
				} else if n < len(hoods) && len(hoods[n]) < 2 {
					bad("%s: neighborhood %d has one member; there is no successor to promote", where, n)
				}
			}
			if e.Until != 0 {
				bad("%s: leader-kill is atomic at its round boundary; until does not apply", where)
			}
			if e.Cohort != "" || e.Count != 0 {
				bad("%s: cohort/count do not apply to leader-kill events", where)
			}
		case "partition":
			if t.Gossip == nil {
				bad("%s: partition events need topology.gossip (direct edges have no data plane without the cloud)", where)
			}
			if e.Target != "cloud" {
				bad("%s: partition targets \"cloud\", got %q", where, e.Target)
			}
			if e.Cohort != "" || e.Count != 0 {
				bad("%s: cohort/count do not apply to partition events", where)
			}
		case "surge":
			if e.Cohort == "" || !names[e.Cohort] {
				bad("%s: surge needs cohort naming an existing cohort (got %q)", where, e.Cohort)
			} else {
				for _, co := range s.Cohorts {
					if co.Name == e.Cohort && co.Kind == KindRSU {
						bad("%s: cannot surge an rsu cohort", where)
					}
				}
			}
			if e.Count < 1 {
				bad("%s: surge count must be >= 1 (got %d)", where, e.Count)
			}
			if e.Target != "" {
				bad("%s: target does not apply to surge events", where)
			}
		default:
			bad("%s: unknown action %q (want outage, kill, leader-kill, surge, or partition)", where, e.Action)
		}
	}
	if needsDeadline {
		if t.Gossip != nil {
			// Gossip rounds barrier at the edges, not the cloud: a silent
			// member stalls its neighborhood, not the cloud's digest fold.
			if t.Gossip.Deadline == 0 {
				bad("outage/kill events need topology.gossip.deadline > 0 (a silent member would stall its neighborhood forever)")
			}
		} else if s.Cloud.RoundDeadline == 0 {
			bad("outage/kill events need cloud.round_deadline > 0 (a silent region would stall the barrier forever)")
		}
	}

	v := &s.Verdict
	if v.MaxDegradedRounds != nil && *v.MaxDegradedRounds < 0 {
		bad("verdict.max_degraded_rounds must be >= 0")
	}
	if v.MinRewinds < 0 {
		bad("verdict.min_rewinds must be >= 0")
	}
	if v.MinRecoveries < 0 {
		bad("verdict.min_recoveries must be >= 0")
	}
	if v.MinPartitionLocalRounds < 0 {
		bad("verdict.min_partition_local_rounds must be >= 0")
	} else if v.MinPartitionLocalRounds > 0 {
		hasPartition := false
		for ei := range s.Events {
			if s.Events[ei].Action == "partition" {
				hasPartition = true
			}
		}
		if !hasPartition {
			bad("verdict.min_partition_local_rounds needs a partition event")
		}
	}
	if v.MinGossipFailovers < 0 {
		bad("verdict.min_gossip_failovers must be >= 0")
	} else if v.MinGossipFailovers > 0 && (t.Gossip == nil || t.Gossip.FailoverTTL == 0) {
		bad("verdict.min_gossip_failovers needs topology.gossip.failover_ttl > 0 (static leadership never fails over)")
	}
	if v.RequireHashEqual {
		if s.Cloud.RoundDeadline != 0 {
			bad("verdict.require_hash_equal needs cloud.round_deadline 0: degraded rounds publish a different ratio trajectory than the lossless twin")
		}
		if t.Gossip != nil && t.Gossip.Deadline != 0 {
			bad("verdict.require_hash_equal needs topology.gossip.deadline 0: a deadline-degraded local round folds a different census set than the lossless twin")
		}
		for ci := range s.Cohorts {
			if s.Cohorts[ci].Fault != nil {
				bad("verdict.require_hash_equal forbids cohort faults (cohorts[%d]): vehicle-link faults perturb the census itself", ci)
			}
		}
		for li := range s.Links {
			if s.Links[li].Fault.DropProb > 0 {
				bad("verdict.require_hash_equal forbids link drops (links[%d]): a dropped census never folds", li)
			}
		}
		for ei := range s.Events {
			// leader-kill is deliberately legal here: the handoff happens at a
			// round boundary, the successor drains the mirrored backlog, and
			// the cloud adopts re-sent digest rounds idempotently — the fold
			// trajectory is bit-identical to the lossless twin's.
			if a := s.Events[ei].Action; a == "outage" || a == "kill" {
				bad("verdict.require_hash_equal forbids %s events (events[%d])", a, ei)
			}
		}
		if t.Gossip != nil && t.Gossip.MaxBacklog > 0 {
			bad("verdict.require_hash_equal forbids topology.gossip.max_backlog: shed backlog rounds never reach the cloud")
		}
	}

	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("scenario %q: %d problem(s):\n  - %s",
		s.Name, len(errs), strings.Join(errs, "\n  - "))
}

func validateFault(f *FaultSpec) error {
	if f == nil {
		return nil
	}
	var errs []string
	check := func(name string, p float64) {
		if p < 0 || p > 1 {
			errs = append(errs, fmt.Sprintf("%s %v out of [0,1]", name, p))
		}
	}
	check("drop_prob", f.DropProb)
	check("dup_prob", f.DupProb)
	check("accept_fail_prob", f.AcceptFailProb)
	if f.MinDelay < 0 || f.MaxDelay < 0 {
		errs = append(errs, "delays must be >= 0")
	}
	if f.MinDelay > f.MaxDelay {
		errs = append(errs, fmt.Sprintf("min_delay %v > max_delay %v",
			time.Duration(f.MinDelay), time.Duration(f.MaxDelay)))
	}
	if f.DisconnectAfter < 0 {
		errs = append(errs, "disconnect_after must be >= 0")
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}
