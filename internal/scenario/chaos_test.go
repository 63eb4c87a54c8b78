package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

// tier is a cloud, one edge per region and one fleet per edge, each started
// through NodeConfig on one in-process network, as the runner starts a
// spec's. A kill is Node.Stop; a restart is Start on the same config.
type tier struct {
	net     *Network
	edgeVia Net
	cloud   *Node
	edges   []*Node
	dark    []bool // killed and not yet restarted
	fleets  []*Node
}

// chaosConfigs returns the cloud and edge configs of the chaos runs: two
// regions folding toward the x=0.85 regime banded by 0.2, a 400 ms cloud
// round deadline and a 150 ms edge upload wait, all reporting to o.
func chaosConfigs(o *obs.Observer) (cc, ec *NodeConfig) {
	cc = Defaults(RoleCloud)
	cc.Listen, cc.Eps, cc.RoundDeadline, cc.Obs = "cloud", 0.2, 400*time.Millisecond, o
	ec = Defaults(RoleEdge)
	ec.Seed, ec.CloudAddr, ec.RoundDeadline, ec.Obs = 100, cc.Listen, 150*time.Millisecond, o
	return cc, ec
}

// startTier starts cc's cloud, an edge per region from ec (its uplinks
// through edgeFault) and a fleet of n vehicles per edge (its uplinks through
// vehFault). Cleanup stops every node.
func startTier(t *testing.T, cc, ec *NodeConfig, n int, edgeFault, vehFault *transport.Fault) *tier {
	t.Helper()
	tr := &tier{net: NewNetwork("inproc"), dark: make([]bool, cc.Regions)}
	tr.edgeVia = tr.net.Via(edgeFault, nil)
	var err error
	if tr.cloud, err = cc.Start(tr.net.Via(nil, nil)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.stop() })
	for i := 0; i < cc.Regions; i++ {
		c, v := *ec, Defaults(RoleVehicles)
		c.ID, c.Seed, c.Listen = i, ec.Seed+int64(i), fmt.Sprintf("edge-%d", i)
		v.EdgeAddr, v.Obs, v.RetryMax = c.Listen, ec.Obs, 60 // patient: outlasts every kill window
		e, err := c.Start(tr.edgeVia)
		if err != nil {
			t.Fatal(err)
		}
		tr.edges = append(tr.edges, e)
		f, err := v.StartFleet(FleetSpec{N: n, IDBase: 1 + i*n, RegisterTimeout: 250 * time.Millisecond, Seed: 5000}, tr.net.Via(vehFault, nil))
		if err != nil {
			t.Fatal(err)
		}
		tr.fleets = append(tr.fleets, f)
	}
	return tr
}

// stop stops every node and returns the vehicle sessions' failures.
func (tr *tier) stop() error {
	for _, f := range tr.fleets {
		f.Stop()
	}
	for _, e := range tr.edges {
		e.Stop()
	}
	tr.cloud.Stop()
	var errs []error
	for _, f := range tr.fleets {
		errs = append(errs, f.Wait())
	}
	return errors.Join(errs...)
}

// drive runs round t on every live edge at once, as the runner does, once
// the fleets have registered, for t < maxRounds or until between reports
// done; between runs after each round and may kill and restart nodes. A
// round whose vehicles failed ends the run; one whose upstream failed keeps
// its ratio, as cpnode's edge does.
func (tr *tier) drive(maxRounds int, between func(t int) (done bool, err error)) (bool, error) {
	x := make([]float64, len(tr.edges))
	for i, e := range tr.edges {
		if err := e.AwaitVehicles(len(tr.fleets[i].Fleet), 10*time.Second); err != nil {
			return false, err
		}
		x[i] = e.Config.X0
	}
	for t := 0; t < maxRounds; t++ {
		errs := make([]error, len(tr.edges))
		var wg sync.WaitGroup
		for i, e := range tr.edges {
			if tr.dark[i] {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				census, next, err := e.Round(t, x[i])
				if err != nil && census == nil {
					errs[i] = fmt.Errorf("edge %d round %d: %w", i, t, err)
				}
				x[i] = next
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return false, err
		}
		if done, err := between(t); done || err != nil {
			return done, err
		}
	}
	return false, nil
}

// killEdge stops edge i without a drain; it runs no round until restarted.
func (tr *tier) killEdge(i int) {
	tr.edges[i].Stop()
	tr.dark[i] = true
}

// restartEdge starts edge i again on its config and waits for its fleet to
// register.
func (tr *tier) restartEdge(i int) error {
	e, err := tr.edges[i].Config.Start(tr.edgeVia)
	if err != nil {
		return fmt.Errorf("restarting edge %d: %w", i, err)
	}
	tr.edges[i], tr.dark[i] = e, false
	return e.AwaitVehicles(len(tr.fleets[i].Fleet), 10*time.Second)
}

// restartCloud kills a cloud without a drain, as kill -9 would, and starts
// it again on the same config and StateDir: the new life must resume at the
// killed one's round with its state bit for bit.
func restartCloud(old *Node, via Net) (*Node, error) {
	old.Stop()
	c, err := old.Config.Start(via)
	if err != nil {
		return nil, fmt.Errorf("restarting the cloud: %w", err)
	}
	if got, want := c.Cloud.Latest(), old.Cloud.Latest(); got != want {
		c.Stop()
		return nil, fmt.Errorf("recovered latest = %d, the killed cloud had %d", got, want)
	}
	if !reflect.DeepEqual(c.Cloud.State(), old.Cloud.State()) {
		c.Stop()
		return nil, fmt.Errorf("recovered state differs from the killed cloud's")
	}
	return c, nil
}

// counterFloors checks each named counter of snap against its floor.
func counterFloors(t *testing.T, snap []obs.Point, floors map[string]uint64) {
	t.Helper()
	for name, min := range floors {
		if v := sumCounter(snap, name); v < min {
			t.Errorf("%s = %d, want >= %d", name, v, min)
		}
	}
}

// TestChaosPipelineConverges runs the full cloud/edge/vehicle pipeline over
// faulty links — 10% drops and 1–20 ms delays on every vehicle uplink, and
// periodic forced disconnects on the cloud links — kills edge 1 mid-run and
// restarts it, and requires the system to still converge to the FDS desired
// field. The cloud's round deadline keeps the healthy region progressing
// (degraded rounds) while the other is down.
func TestChaosPipelineConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes several seconds")
	}
	const (
		maxRounds = 60
		killAt    = 6
		dark      = 1 // rounds edge 1 misses: each waits out the cloud's deadline and completes degraded
	)
	// One observer for the whole system; the cloud-link injector gets its
	// own, so its transport_fault_* series stay apart from the vehicles'.
	o, linkObs := obs.New(), obs.New()
	vehFault := transport.NewFault(transport.FaultConfig{Seed: 42, DropProb: 0.1, MinDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
	vehFault.Instrument(o)
	// Each Report passes ~2 messages, so every cloud link is force-dropped
	// every ~4 rounds and must redial and re-submit.
	linkFault := transport.NewFault(transport.FaultConfig{Seed: 7, DisconnectAfter: 8})
	linkFault.Instrument(linkObs)
	cc, ec := chaosConfigs(o)
	tr := startTier(t, cc, ec, 16, linkFault, vehFault)

	restarted := false
	converged, err := tr.drive(maxRounds, func(t int) (bool, error) {
		switch t {
		case killAt:
			tr.killEdge(1)
		case killAt + dark:
			restarted = true
			if err := tr.restartEdge(1); err != nil {
				return false, err
			}
		}
		return restarted && tr.cloud.Cloud.Converged(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.stop(); err != nil {
		t.Fatalf("vehicle sessions failed: %v", err)
	}
	if !restarted {
		t.Fatal("edge 1 was never killed and restarted — chaos script did not run")
	}
	if !converged {
		t.Fatalf("run did not converge to the desired field within %d rounds (cloud state: %+v)",
			maxRounds, tr.cloud.Cloud.State().P)
	}
	// Cloud degradation, vehicle-link faults, redials and reconnects all
	// show in the one shared registry.
	snap := o.Registry().Snapshot()
	counterFloors(t, snap, map[string]uint64{
		"consensus_rounds_total":          1,
		"consensus_degraded_rounds_total": 1,
		"transport_fault_dropped_total":   1,
		"transport_fault_delayed_total":   1,
		"edge_cloud_redials_total":        1,
		"vehicle_reconnects_total":        1,
	})
	disconnects := sumCounter(linkObs.Registry().Snapshot(), "transport_fault_disconnects_total")
	if disconnects == 0 {
		t.Error("cloud-link fault injection never disconnected")
	}
	t.Logf("chaos run: latest=%d, degraded=%d, vehicle faults dropped=%d delayed=%d, link disconnects=%d",
		tr.cloud.Cloud.Latest(), sumCounter(snap, "consensus_degraded_rounds_total"), sumCounter(snap, "transport_fault_dropped_total"),
		sumCounter(snap, "transport_fault_delayed_total"), disconnects)
}

// TestChaosCloudCrashRestartRecovers runs the full pipeline with durability
// and membership leases, kill -9s the cloud mid-run, restarts it from the
// same state directory, and later kills edge 1 with its heartbeat so the
// lease-based quorum — not the round-deadline backstop alone — unblocks the
// healthy region. The restarted cloud must resume bit-identical to the
// killed one and the whole system must still converge.
func TestChaosCloudCrashRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes several seconds")
	}
	const (
		maxRounds       = 80
		cloudKillLatest = 3 // kill the cloud once it has applied this many rounds
		edgeKillRound   = 9 // kill edge 1 after the cloud is back
		dark            = 3 // rounds edge 1 misses: the first waits out its lease
	)
	o := obs.New()
	cc, ec := chaosConfigs(o)
	cc.StateDir, ec.LeaseTTL = t.TempDir(), 300*time.Millisecond
	tr := startTier(t, cc, ec, 12, nil, nil)

	cloudKilled, edgeKilled, edgeRestarted := false, -1, false
	converged, err := tr.drive(maxRounds, func(t int) (bool, error) {
		switch {
		case !cloudKilled && tr.cloud.Cloud.Latest() >= cloudKillLatest:
			c, err := restartCloud(tr.cloud, tr.net.Via(nil, nil))
			if err != nil {
				return false, err
			}
			tr.cloud, cloudKilled = c, true
		case cloudKilled && edgeKilled < 0 && t >= edgeKillRound:
			// Only kill once the restarted cloud holds edge 1's lease:
			// otherwise there is nothing to evict, and the run would pass
			// through the round-deadline backstop alone.
			for deadline := time.Now().Add(5 * time.Second); !slices.Contains(tr.cloud.Cloud.LiveLeases(), 1); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					return false, fmt.Errorf("edge 1 never re-leased on the restarted cloud")
				}
			}
			tr.killEdge(1)
			edgeKilled = t
		case edgeKilled >= 0 && t == edgeKilled+dark:
			edgeRestarted = true
			if err := tr.restartEdge(1); err != nil {
				return false, err
			}
		}
		return edgeRestarted && tr.cloud.Cloud.Converged(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.stop(); err != nil {
		t.Fatalf("vehicle sessions failed: %v", err)
	}
	if !cloudKilled {
		t.Fatal("the cloud was never killed — chaos script did not run")
	}
	if !edgeRestarted {
		t.Fatal("edge 1 was never killed and restarted — chaos script did not run")
	}
	if !converged {
		t.Fatalf("run did not converge to the desired field within %d rounds (cloud state: %+v)",
			maxRounds, tr.cloud.Cloud.State().P)
	}
	// The registry carries the durability and membership series of the
	// whole run, across both cloud lives.
	snap := o.Registry().Snapshot()
	counterFloors(t, snap, map[string]uint64{
		"durable_recoveries_total":        1,
		"journal_replay_records_total":    1,
		"lease_evictions_total":           1,
		"lease_renewals_total":            1,
		"edge_lease_renewals_total":       1,
		"consensus_rounds_total":          cloudKillLatest,
		"consensus_degraded_rounds_total": 1,
		"vehicle_reconnects_total":        1,
	})
	t.Logf("crash-restart chaos: latest=%d, rounds=%d, degraded=%d", tr.cloud.Cloud.Latest(),
		sumCounter(snap, "consensus_rounds_total"), sumCounter(snap, "consensus_degraded_rounds_total"))
}

// TestTCPCrashRestartResumesFromCheckpoint is the wire-level recovery
// check: a cloud over loopback TCP is killed after a few rounds, and its
// restart on a new port and the same state directory must resume at the
// same round with a bit-identical state, answer a late census from the
// recovered ratios, and complete the next round.
func TestTCPCrashRestartResumesFromCheckpoint(t *testing.T) {
	via := NewNetwork("tcp").Via(nil, nil)
	cc := Defaults(RoleCloud)
	cc.Listen, cc.StateDir, cc.X0, cc.RoundDeadline = "cloud", t.TempDir(), 0.5, 0
	k := lattice.NewPaper().K()
	cc.Field = policy.NewFreeField(cc.Regions, k)
	cloud, err := cc.Start(via)
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Stop()

	links := make([]*edge.CloudLink, cc.Regions)
	for i := range links {
		ec := Defaults(RoleEdge)
		ec.ID, ec.Seed = i, int64(i+1)
		if links[i], err = ec.NewCloudLink(via.Dial(cc.Listen)); err != nil {
			t.Fatal(err)
		}
		defer links[i].Close()
	}
	counts := func(i int) []int {
		c := make([]int, k)
		c[0], c[1] = 7-i, 3+i
		return c
	}
	runRound := func(round int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(links))
		for i, l := range links {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = l.Report(round, counts(i))
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for round := 0; round < 3; round++ {
		runRound(round)
	}
	pre := cloud.Cloud.State()
	if got := cloud.Cloud.Latest(); got != 2 {
		t.Fatalf("latest after 3 rounds = %d, want 2", got)
	}

	restarted, err := restartCloud(cloud, via)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()
	snap := restarted.Cloud.Registry().Snapshot()
	if v := sumCounter(snap, "durable_recoveries_total"); v != 1 {
		t.Errorf("durable_recoveries_total = %d, want 1", v)
	}
	if v := sumCounter(snap, "journal_replay_records_total"); v != 3 {
		t.Errorf("journal_replay_records_total = %d, want 3", v)
	}

	// A late census for an already-applied round is answered from the
	// recovered state, not re-barriered.
	x, err := links[0].Report(1, counts(0))
	if err != nil {
		t.Fatalf("late census after recovery: %v", err)
	}
	if want := pre.X[0]; x != want {
		t.Errorf("late census ratio = %v, want recovered %v", x, want)
	}
	// And consensus continues: the next round completes on the new cloud.
	runRound(3)
	if got := restarted.Cloud.Latest(); got != 3 {
		t.Errorf("latest after resumed round = %d, want 3", got)
	}
}
