package sim

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sensor"
	"repro/internal/transport"
	"repro/internal/vehicle"
)

// counterValue reads one counter's value out of a registry snapshot.
func counterValue(points []obs.Point, name string) (float64, bool) {
	for _, p := range points {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value, true
		}
	}
	return 0, false
}

// chaosGraph is a 2-region graph with dominant intra-region frequency.
type chaosGraph struct{}

func (chaosGraph) M() int { return 2 }
func (chaosGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.9
	}
	return 0.1
}
func (chaosGraph) Neighbors(i int) []int {
	if i == 0 {
		return []int{1}
	}
	return []int{0}
}

// TestChaosPipelineConverges runs the full cloud/edge/vehicle pipeline over
// faulty links — 10% message drops, 1–20ms injected delays on every vehicle
// connection, and periodic forced disconnects on the cloud links — kills one
// edge server mid-run and restarts it, and requires the system to still
// converge to the FDS desired field. The cloud's round deadline keeps the
// healthy region progressing (degraded rounds) while the other is down.
func TestChaosPipelineConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes several seconds")
	}
	const (
		regions       = 2
		perRegion     = 16
		maxRounds     = 60
		beta          = 4.0
		tau           = 0.25
		mu            = 0.5
		lambda        = 0.1
		x0            = 0.3
		targetX       = 0.85
		fieldEps      = 0.2
		roundDeadline = 400 * time.Millisecond
		roundTimeout  = 150 * time.Millisecond
		killAtRound   = 6
		outage        = 600 * time.Millisecond // > roundDeadline: forces degraded rounds
	)

	payoffs := lattice.PaperPayoffs()
	model, err := game.NewModel(payoffs, chaosGraph{}, []float64{beta, beta})
	if err != nil {
		t.Fatal(err)
	}

	// Desired field: the regime reachable from x0 by adiabatic continuation
	// to the target ratio (same construction as cmd/cpnode's cloud role).
	dyn, err := game.NewLogitDynamics(model, tau, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	probe := game.NewUniformState(regions, model.K(), x0)
	for ramping := true; ramping; {
		ramping = false
		for i := range probe.X {
			if probe.X[i]+lambda < targetX {
				probe.X[i] += lambda
				ramping = true
			} else {
				probe.X[i] = targetX
			}
		}
		if err := dyn.Step(probe); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dyn.Equilibrium(probe, 1e-9, 20000); err != nil {
		t.Fatal(err)
	}
	field, err := FieldFromState(probe, fieldEps)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := policy.NewFDS(model, field, lambda)
	if err != nil {
		t.Fatal(err)
	}
	// One shared observer across the cloud, edges, vehicle fault injector,
	// cloud links, and vehicle clients: the assertions at the end read the
	// whole system's health from a single registry snapshot. The cloud-link
	// injector gets its own registry so its transport_fault_* series stay
	// distinct from the vehicle-link injector's.
	o := obs.New()
	cloudSrv, err := cloud.NewServer(fds, game.NewUniformState(regions, model.K(), x0))
	if err != nil {
		t.Fatal(err)
	}
	cloudSrv.Instrument(o)
	cloudSrv.SetRoundDeadline(roundDeadline)
	defer cloudSrv.Close()

	net := transport.NewInprocNetwork()
	cloudL, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go cloudSrv.Serve(cloudL)
	defer cloudL.Close()

	// Vehicle links: drops and delays on both directions (dial side and
	// edge listener side). Cloud links: periodic forced disconnects.
	vehFault := transport.NewFault(transport.FaultConfig{
		Seed:     42,
		DropProb: 0.1,
		MinDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond,
	})
	vehFault.Instrument(o)
	// Each Report passes ~2 messages, so every cloud link is force-dropped
	// every ~4 rounds and must redial + re-submit.
	linkFault := transport.NewFault(transport.FaultConfig{Seed: 7, DisconnectAfter: 8})
	linkObs := obs.New()
	linkFault.Instrument(linkObs)

	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }

	listeners := make([]transport.Listener, regions)
	servers := make([]*edge.Server, regions)
	startEdge := func(i int, seed int64) error {
		l, err := net.Listen(fmt.Sprintf("edge-%d", i))
		if err != nil {
			return err
		}
		listeners[i] = vehFault.WrapListener(l)
		servers[i] = edge.NewServer(i, payoffs.Lattice(), seed)
		servers[i].Instrument(o)
		go servers[i].Serve(listeners[i])
		return nil
	}
	for i := 0; i < regions; i++ {
		if err := startEdge(i, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Teardown order matters: stop the clients' reconnect loops, then kill
	// the listeners and servers so blocked clients unblock, then wait for
	// the client goroutines. Runs on both the success and t.Fatal paths.
	var clientWG sync.WaitGroup
	teardown := func() {
		closeStop()
		for _, l := range listeners {
			_ = l.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		clientWG.Wait()
	}
	defer teardown()

	newLink := func(i int) *edge.CloudLink {
		return &edge.CloudLink{
			Edge: i,
			Dialer: &transport.Dialer{
				Dial: func() (transport.Conn, error) {
					c, err := net.Dial("cloud")
					if err != nil {
						return nil, err
					}
					return linkFault.WrapConn(c), nil
				},
				MaxAttempts: 10,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(1000 + i),
			},
			ReplyTimeout: time.Second,
			Obs:          o,
		}
	}

	// Vehicle fleets: reconnecting clients over faulty links.
	clientErr := make(chan error, regions*perRegion)
	nextID := 1
	for i := 0; i < regions; i++ {
		region := i
		for v := 0; v < perRegion; v++ {
			prof := vehicle.Profile{
				ID:            nextID,
				Equipped:      sensor.MaskAll,
				Desired:       sensor.MaskAll,
				PrivacyWeight: 1,
				Beta:          beta,
				Tau:           tau,
			}
			nextID++
			agent, err := vehicle.NewAgent(prof, payoffs, int64(5000+prof.ID))
			if err != nil {
				t.Fatal(err)
			}
			client := &vehicle.Client{
				Agent:           agent,
				Mu:              mu,
				Cap:             sensor.TableIII(),
				RegisterTimeout: 250 * time.Millisecond,
				Stop:            stop,
				Obs:             o,
			}
			dialer := &transport.Dialer{
				Dial: func() (transport.Conn, error) {
					c, err := net.Dial(fmt.Sprintf("edge-%d", region))
					if err != nil {
						return nil, err
					}
					return vehFault.WrapConn(c), nil
				},
				MaxAttempts: 60, // patient: must outlast the edge-1 outage
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(7000 + prof.ID),
			}
			clientWG.Add(1)
			go func() {
				defer clientWG.Done()
				if err := client.RunWithReconnect(dialer); err != nil {
					clientErr <- err
				}
			}()
		}
	}

	waitRegistered := func(i int) error {
		deadline := time.Now().Add(10 * time.Second)
		for servers[i].NumVehicles() < perRegion {
			if time.Now().After(deadline) {
				return fmt.Errorf("edge %d: only %d/%d vehicles registered",
					i, servers[i].NumVehicles(), perRegion)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}

	var converged atomic.Bool
	var killed atomic.Bool
	driver := func(i int) error {
		if err := waitRegistered(i); err != nil {
			return err
		}
		link := newLink(i)
		defer func() { _ = link.Close() }()
		x := float64(x0)
		for round := 0; round < maxRounds; round++ {
			if converged.Load() {
				return nil
			}
			census, err := servers[i].RunRound(round, x, roundTimeout)
			if err != nil {
				return fmt.Errorf("edge %d round %d: %w", i, round, err)
			}
			next, err := link.Report(round, census)
			if err != nil {
				// Degraded round: cloud unreachable; keep the current ratio.
				continue
			}
			x = next
			if cloudSrv.Converged() {
				converged.Store(true)
				return nil
			}

			// Mid-run chaos: kill edge 1 entirely — listener, server, cloud
			// link — leave it dark long enough for the cloud's deadline to
			// fire, then restart it and let the vehicles re-register.
			if i == 1 && round == killAtRound {
				killed.Store(true)
				_ = link.Close()
				_ = listeners[1].Close()
				servers[1].Close()
				time.Sleep(outage)
				if err := startEdge(1, 999); err != nil {
					return fmt.Errorf("restarting edge 1: %w", err)
				}
				if err := waitRegistered(1); err != nil {
					return fmt.Errorf("after restart: %w", err)
				}
				link = newLink(1)
			}
		}
		return nil
	}

	errs := make([]error, regions)
	var wg sync.WaitGroup
	for i := 0; i < regions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = driver(i)
		}()
	}
	wg.Wait()
	teardown()

	var clientFailures []error
	for {
		select {
		case err := <-clientErr:
			clientFailures = append(clientFailures, err)
			continue
		default:
		}
		break
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("driver %d: %v (client errors: %v)", i, err, clientFailures)
		}
	}
	if len(clientFailures) > 0 {
		t.Fatalf("vehicle clients failed: %v", clientFailures)
	}

	if !killed.Load() {
		t.Fatal("edge 1 was never killed — chaos script did not run")
	}
	if !converged.Load() {
		t.Fatalf("run did not converge to the desired field within %d rounds (cloud state: %+v)",
			maxRounds, cloudSrv.State().P)
	}
	// The whole system's health signals — cloud degradation, vehicle-link
	// faults, redials, reconnects — must be visible through the one shared
	// registry snapshot.
	snap := o.Registry().Snapshot()
	for _, want := range []struct {
		name string
		min  float64
	}{
		{"consensus_rounds_total", 1},
		{"consensus_degraded_rounds_total", 1},
		{"transport_fault_dropped_total", 1},
		{"transport_fault_delayed_total", 1},
		{"edge_cloud_redials_total", 1},
		{"vehicle_reconnects_total", 1},
	} {
		v, ok := counterValue(snap, want.name)
		if !ok {
			t.Errorf("registry snapshot is missing %s", want.name)
			continue
		}
		if v < want.min {
			t.Errorf("%s = %v, want >= %v", want.name, v, want.min)
		}
	}
	// The cloud-link injector reports on its own registry, so its forced
	// disconnects are distinguishable from the vehicle-link series above.
	disconnects, _ := counterValue(linkObs.Registry().Snapshot(), "transport_fault_disconnects_total")
	if disconnects == 0 {
		t.Error("cloud-link fault injection never disconnected")
	}
	degraded, _ := counterValue(snap, "consensus_degraded_rounds_total")
	dropped, _ := counterValue(snap, "transport_fault_dropped_total")
	delayed, _ := counterValue(snap, "transport_fault_delayed_total")
	t.Logf("chaos run: degraded=%v, vehicle faults dropped=%v delayed=%v, link disconnects=%v",
		degraded, dropped, delayed, disconnects)
}

// TestRunAgentSimWithFaults: the packaged agent simulation survives a lossy
// transport when configured with a FaultConfig (drops, delays, reconnecting
// clients) and still completes its rounds. Its messages cross typed; the
// TCP runs of TestFixedLagDeterminism and TestShardedGoldenHash are what
// keep the serialization path covered under fault injection.
func TestRunAgentSimWithFaults(t *testing.T) {
	w := buildTinyWorld(t, CoeffBC)
	opts := MacroOptions{}
	start, err := w.EquilibriumAt(0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	target, err := w.EquilibriumFrom(start, 0.85, 0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	field, err := FieldFromState(target, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunAgentSim(AgentSimConfig{
		VehiclesPerRegion: 10,
		Rounds:            5,
		Field:             field,
		Seed:              11,
		X0:                0.5,
		InitialShares:     start.P,
		RoundTimeout:      300 * time.Millisecond,
		Fault: &transport.FaultConfig{
			DropProb: 0.05,
			MinDelay: time.Millisecond,
			MaxDelay: 5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Errorf("completed %d rounds, want 5", res.Rounds)
	}
}

// TestChaosCloudCrashRestartRecovers runs the full pipeline with durability
// and membership leases enabled, kill -9s the cloud mid-run (listener and
// server torn down with no drain), restarts it from the same state
// directory, and later kills edge 1 with its heartbeat so the lease-based
// quorum — not the round-deadline backstop alone — unblocks the healthy
// region. The restarted cloud must resume bit-identical to the killed one
// and the whole system must still converge to the FDS desired field.
func TestChaosCloudCrashRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes several seconds")
	}
	const (
		regions         = 2
		perRegion       = 12
		maxRounds       = 80
		beta            = 4.0
		tau             = 0.25
		mu              = 0.5
		lambda          = 0.1
		x0              = 0.3
		targetX         = 0.85
		fieldEps        = 0.2
		roundDeadline   = 400 * time.Millisecond
		roundTimeout    = 150 * time.Millisecond
		leaseTTL        = 300 * time.Millisecond
		leaseInterval   = 100 * time.Millisecond
		cloudKillLatest = 3                      // kill the cloud once it has applied this many rounds
		edgeKillRound   = 9                      // kill edge 1 after the cloud is back
		outage          = 600 * time.Millisecond // > leaseTTL: forces an eviction
	)

	payoffs := lattice.PaperPayoffs()
	model, err := game.NewModel(payoffs, chaosGraph{}, []float64{beta, beta})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := game.NewLogitDynamics(model, tau, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	probe := game.NewUniformState(regions, model.K(), x0)
	for ramping := true; ramping; {
		ramping = false
		for i := range probe.X {
			if probe.X[i]+lambda < targetX {
				probe.X[i] += lambda
				ramping = true
			} else {
				probe.X[i] = targetX
			}
		}
		if err := dyn.Step(probe); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dyn.Equilibrium(probe, 1e-9, 20000); err != nil {
		t.Fatal(err)
	}
	field, err := FieldFromState(probe, fieldEps)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	stateDir := t.TempDir()
	newCloud := func() (*cloud.Server, error) {
		// The FDS controller is stateful, so every incarnation gets a fresh
		// one; Open restores its memory from the checkpoint.
		fds, err := policy.NewFDS(model, field, lambda)
		if err != nil {
			return nil, err
		}
		srv, err := cloud.NewServer(fds, game.NewUniformState(regions, model.K(), x0))
		if err != nil {
			return nil, err
		}
		srv.Instrument(o)
		srv.SetRoundDeadline(roundDeadline)
		if err := srv.Open(stateDir); err != nil {
			srv.Close()
			return nil, err
		}
		return srv, nil
	}

	net := transport.NewInprocNetwork()
	var cloudMu sync.Mutex
	var curCloud *cloud.Server
	var curCloudL transport.Listener
	startCloud := func() error {
		srv, err := newCloud()
		if err != nil {
			return err
		}
		l, err := net.Listen("cloud")
		if err != nil {
			srv.Close()
			return err
		}
		go srv.Serve(l)
		cloudMu.Lock()
		curCloud, curCloudL = srv, l
		cloudMu.Unlock()
		return nil
	}
	getCloud := func() *cloud.Server {
		cloudMu.Lock()
		defer cloudMu.Unlock()
		return curCloud
	}
	if err := startCloud(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cloudMu.Lock()
		l, srv := curCloudL, curCloud
		cloudMu.Unlock()
		_ = l.Close()
		srv.Close()
	}()

	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }

	// Heartbeats: one per edge on a dedicated connection, individually
	// stoppable so the edge-1 kill takes its lease down with it.
	var hbWG sync.WaitGroup
	hbStop := make([]chan struct{}, regions)
	startHeartbeat := func(i int) {
		hbStop[i] = make(chan struct{})
		hb := &edge.Heartbeat{
			Edge: i,
			Dialer: &transport.Dialer{
				Dial:        func() (transport.Conn, error) { return net.Dial("cloud") },
				MaxAttempts: 5,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(300 + i),
			},
			TTL:      leaseTTL,
			Interval: leaseInterval,
			Obs:      o,
		}
		ch := hbStop[i]
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			hb.Run(ch)
		}()
	}

	listeners := make([]transport.Listener, regions)
	servers := make([]*edge.Server, regions)
	startEdge := func(i int, seed int64) error {
		l, err := net.Listen(fmt.Sprintf("edge-%d", i))
		if err != nil {
			return err
		}
		listeners[i] = l
		servers[i] = edge.NewServer(i, payoffs.Lattice(), seed)
		servers[i].Instrument(o)
		go servers[i].Serve(listeners[i])
		startHeartbeat(i)
		return nil
	}
	for i := 0; i < regions; i++ {
		if err := startEdge(i, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	var clientWG sync.WaitGroup
	teardown := func() {
		closeStop()
		for _, ch := range hbStop {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
		for _, l := range listeners {
			_ = l.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		clientWG.Wait()
		hbWG.Wait()
	}
	defer teardown()

	newLink := func(i int) *edge.CloudLink {
		return &edge.CloudLink{
			Edge: i,
			Dialer: &transport.Dialer{
				Dial:        func() (transport.Conn, error) { return net.Dial("cloud") },
				MaxAttempts: 10,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(1000 + i),
			},
			ReplyTimeout: time.Second,
			Obs:          o,
		}
	}

	clientErr := make(chan error, regions*perRegion)
	nextID := 1
	for i := 0; i < regions; i++ {
		region := i
		for v := 0; v < perRegion; v++ {
			prof := vehicle.Profile{
				ID:            nextID,
				Equipped:      sensor.MaskAll,
				Desired:       sensor.MaskAll,
				PrivacyWeight: 1,
				Beta:          beta,
				Tau:           tau,
			}
			nextID++
			agent, err := vehicle.NewAgent(prof, payoffs, int64(5000+prof.ID))
			if err != nil {
				t.Fatal(err)
			}
			client := &vehicle.Client{
				Agent:           agent,
				Mu:              mu,
				Cap:             sensor.TableIII(),
				RegisterTimeout: 250 * time.Millisecond,
				Stop:            stop,
				Obs:             o,
			}
			dialer := &transport.Dialer{
				Dial:        func() (transport.Conn, error) { return net.Dial(fmt.Sprintf("edge-%d", region)) },
				MaxAttempts: 60,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(7000 + prof.ID),
			}
			clientWG.Add(1)
			go func() {
				defer clientWG.Done()
				if err := client.RunWithReconnect(dialer); err != nil {
					clientErr <- err
				}
			}()
		}
	}

	waitRegistered := func(i int) error {
		deadline := time.Now().Add(10 * time.Second)
		for servers[i].NumVehicles() < perRegion {
			if time.Now().After(deadline) {
				return fmt.Errorf("edge %d: only %d/%d vehicles registered",
					i, servers[i].NumVehicles(), perRegion)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}

	// The killer: once the cloud has applied cloudKillLatest rounds, tear it
	// down with no drain — the moral equivalent of kill -9 — and bring up a
	// fresh incarnation from the same state directory. The recovered server
	// must resume exactly where the corpse stopped.
	killerErr := make(chan error, 1)
	var cloudKilled atomic.Bool
	go func() {
		for getCloud().Latest() < cloudKillLatest {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		cloudMu.Lock()
		old, oldL := curCloud, curCloudL
		cloudMu.Unlock()
		_ = oldL.Close()
		old.Close()
		preLatest := old.Latest()
		preState := old.State()
		if err := startCloud(); err != nil {
			killerErr <- fmt.Errorf("restarting cloud: %w", err)
			return
		}
		srv := getCloud()
		if srv.Latest() != preLatest {
			killerErr <- fmt.Errorf("recovered latest = %d, killed server had %d", srv.Latest(), preLatest)
			return
		}
		if !reflect.DeepEqual(srv.State(), preState) {
			killerErr <- fmt.Errorf("recovered state differs from the killed server's")
			return
		}
		cloudKilled.Store(true)
	}()

	var converged atomic.Bool
	var edgeKilled atomic.Bool
	driver := func(i int) error {
		if err := waitRegistered(i); err != nil {
			return err
		}
		link := newLink(i)
		defer func() { _ = link.Close() }()
		x := float64(x0)
		for round := 0; round < maxRounds; round++ {
			if converged.Load() {
				return nil
			}
			census, err := servers[i].RunRound(round, x, roundTimeout)
			if err != nil {
				return fmt.Errorf("edge %d round %d: %w", i, round, err)
			}
			next, err := link.Report(round, census)
			if err != nil {
				// Cloud unreachable (possibly mid-restart): keep the ratio.
				continue
			}
			x = next
			// Fault-free in-proc rounds are fast enough to converge before
			// the chaos script fires; keep driving until both kills have
			// happened so convergence is demonstrated on the survivor.
			if cloudKilled.Load() && edgeKilled.Load() && getCloud().Converged() {
				converged.Store(true)
				return nil
			}

			// Edge chaos, after the cloud is back: kill edge 1 and its
			// heartbeat, stay dark past the lease TTL so the cloud evicts
			// it, then restart and re-lease.
			if i == 1 && round >= edgeKillRound && cloudKilled.Load() && !edgeKilled.Load() {
				// Only kill once the restarted cloud holds this edge's lease,
				// otherwise there is nothing to evict and the test would pass
				// vacuously through the round-deadline backstop.
				leased := func() bool {
					for _, id := range getCloud().LiveLeases() {
						if id == 1 {
							return true
						}
					}
					return false
				}
				for deadline := time.Now().Add(5 * time.Second); !leased(); {
					if time.Now().After(deadline) {
						return fmt.Errorf("edge 1 never re-leased on the restarted cloud")
					}
					time.Sleep(5 * time.Millisecond)
				}
				edgeKilled.Store(true)
				close(hbStop[1])
				_ = link.Close()
				_ = listeners[1].Close()
				servers[1].Close()
				time.Sleep(outage)
				if err := startEdge(1, 999); err != nil {
					return fmt.Errorf("restarting edge 1: %w", err)
				}
				if err := waitRegistered(1); err != nil {
					return fmt.Errorf("after restart: %w", err)
				}
				link = newLink(1)
			}
		}
		return nil
	}

	errs := make([]error, regions)
	var wg sync.WaitGroup
	for i := 0; i < regions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = driver(i)
		}()
	}
	wg.Wait()
	teardown()

	select {
	case err := <-killerErr:
		t.Fatal(err)
	default:
	}
	var clientFailures []error
	for {
		select {
		case err := <-clientErr:
			clientFailures = append(clientFailures, err)
			continue
		default:
		}
		break
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("driver %d: %v (client errors: %v)", i, err, clientFailures)
		}
	}
	if len(clientFailures) > 0 {
		t.Fatalf("vehicle clients failed: %v", clientFailures)
	}
	if !cloudKilled.Load() {
		t.Fatal("the cloud was never killed — chaos script did not run")
	}
	if !edgeKilled.Load() {
		t.Fatal("edge 1 was never killed — chaos script did not run")
	}
	if !converged.Load() {
		t.Fatalf("run did not converge to the desired field within %d rounds (cloud state: %+v)",
			maxRounds, getCloud().State().P)
	}

	// The FDS trajectory demonstrably continued from the checkpoint
	// (bit-identical resume is asserted by the killer); the registry must
	// carry the durability and membership series for the whole run.
	snap := o.Registry().Snapshot()
	for _, want := range []struct {
		name string
		min  float64
	}{
		{"durable_recoveries_total", 1},
		{"journal_replay_records_total", 1},
		{"lease_evictions_total", 1},
		{"lease_renewals_total", 1},
		{"edge_lease_renewals_total", 1},
		{"consensus_rounds_total", float64(cloudKillLatest)},
		{"consensus_degraded_rounds_total", 1},
		{"vehicle_reconnects_total", 1},
	} {
		v, ok := counterValue(snap, want.name)
		if !ok {
			t.Errorf("registry snapshot is missing %s", want.name)
			continue
		}
		if v < want.min {
			t.Errorf("%s = %v, want >= %v", want.name, v, want.min)
		}
	}
	rounds, _ := counterValue(snap, "consensus_rounds_total")
	degradedRounds, _ := counterValue(snap, "consensus_degraded_rounds_total")
	t.Logf("crash-restart chaos: latest=%d, rounds=%v, degraded=%v", getCloud().Latest(), rounds, degradedRounds)
}

// TestTCPCrashRestartResumesFromCheckpoint is the wire-level recovery
// check: a cloud over real TCP is killed after a few rounds and a fresh
// process-equivalent (new server, new port, same state directory) must
// resume at the same round with a bit-identical state, answer a late
// census from the recovered ratios, and complete the next round.
func TestTCPCrashRestartResumesFromCheckpoint(t *testing.T) {
	const regions = 2
	payoffs := lattice.PaperPayoffs()
	model, err := game.NewModel(payoffs, chaosGraph{}, []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	k := model.K()
	stateDir := t.TempDir()
	newCloud := func() (*cloud.Server, error) {
		fds, err := policy.NewFDS(model, policy.NewFreeField(regions, k), 0.1)
		if err != nil {
			return nil, err
		}
		srv, err := cloud.NewServer(fds, game.NewUniformState(regions, k, 0.5))
		if err != nil {
			return nil, err
		}
		if err := srv.Open(stateDir); err != nil {
			srv.Close()
			return nil, err
		}
		return srv, nil
	}

	srv1, err := newCloud()
	if err != nil {
		t.Fatal(err)
	}
	l1, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(l1)

	var addr atomic.Value
	addr.Store(l1.Addr())
	newLink := func(i int) *edge.CloudLink {
		return &edge.CloudLink{
			Edge: i,
			Dialer: &transport.Dialer{
				Dial:        func() (transport.Conn, error) { return transport.DialTCP(addr.Load().(string)) },
				MaxAttempts: 8,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Seed:        int64(i + 1),
			},
			ReplyTimeout: 5 * time.Second,
		}
	}
	links := [regions]*edge.CloudLink{newLink(0), newLink(1)}
	defer func() {
		for _, l := range links {
			_ = l.Close()
		}
	}()
	counts := func(i int) []int {
		c := make([]int, k)
		c[0] = 7 - i
		c[1] = 3 + i
		return c
	}
	runRound := func(round int) error {
		var wg sync.WaitGroup
		errs := make([]error, regions)
		for i := range links {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = links[i].Report(round, counts(i))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("edge %d round %d: %w", i, round, err)
			}
		}
		return nil
	}
	for round := 0; round < 3; round++ {
		if err := runRound(round); err != nil {
			t.Fatal(err)
		}
	}
	preLatest := srv1.Latest()
	preState := srv1.State()
	if preLatest != 2 {
		t.Fatalf("latest after 3 rounds = %d, want 2", preLatest)
	}

	// kill -9: listener and server die with no drain.
	_ = l1.Close()
	srv1.Close()

	srv2, err := newCloud()
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.Latest() != preLatest {
		t.Fatalf("recovered latest = %d, want %d", srv2.Latest(), preLatest)
	}
	if !reflect.DeepEqual(srv2.State(), preState) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", srv2.State(), preState)
	}
	snap := srv2.Registry().Snapshot()
	if v, _ := counterValue(snap, "durable_recoveries_total"); v != 1 {
		t.Errorf("durable_recoveries_total = %v, want 1", v)
	}
	if v, _ := counterValue(snap, "journal_replay_records_total"); v != 3 {
		t.Errorf("journal_replay_records_total = %v, want 3", v)
	}

	l2, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	addr.Store(l2.Addr())
	go srv2.Serve(l2)

	// A late census for an already-applied round is answered from the
	// recovered state, not re-barriered.
	x, err := links[0].Report(1, counts(0))
	if err != nil {
		t.Fatalf("late census after recovery: %v", err)
	}
	if want := preState.X[0]; x != want {
		t.Errorf("late census ratio = %v, want recovered %v", x, want)
	}

	// And consensus continues: the next round completes on the new server.
	if err := runRound(preLatest + 1); err != nil {
		t.Fatal(err)
	}
	if srv2.Latest() != preLatest+1 {
		t.Errorf("latest after resumed round = %d, want %d", srv2.Latest(), preLatest+1)
	}
}
