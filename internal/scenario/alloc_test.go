package scenario

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/obs"
)

// TestWholeRoundAllocs pins the heap objects a warmed round of the whole
// pipeline takes: a durable cloud, two edges reporting their censuses direct
// and eight vehicles, each node started through NodeConfig over loopback TCP
// and reporting to one observer, as the benchmark's tier does. The census
// each edge's RunRound returns is its caller's; every other part of the
// round reuses what it allocated, and the cloud's checkpoint every 32 rounds
// is what is left, spread over the rounds.
func TestWholeRoundAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const edges, perEdge = 2, 4
	o := obs.New()
	cloudNC := Defaults(RoleCloud)
	cloudNC.Regions, cloudNC.StateDir, cloudNC.Obs = edges, t.TempDir(), o
	cloudNode, err := cloudNC.Start(Net{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cloudNode.Stop)
	nodes := make([]*Node, edges)
	for i := range nodes {
		nc := Defaults(RoleEdge)
		nc.ID, nc.Regions, nc.CloudAddr, nc.Vehicles, nc.Obs = i, edges, cloudNode.Addr, perEdge, o
		if nodes[i], err = nc.Start(Net{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nodes[i].Stop)
		vc := Defaults(RoleVehicles)
		vc.EdgeAddr, vc.Obs = nodes[i].Addr, o
		fleet, err := vc.StartFleet(FleetSpec{N: perEdge, IDBase: 100 * (i + 1), Beta: vc.Beta, Tau: vc.Tau, Seed: int64(i + 1)}, Net{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fleet.Stop)
		if err := nodes[i].AwaitVehicles(perEdge, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// One driver goroutine per edge, started once, so the harness allocates
	// nothing per round.
	rounds, done := make([]chan int, edges), make(chan error)
	for i, n := range nodes {
		rounds[i] = make(chan int)
		go func() {
			x := n.Config.X0
			for r := range rounds[i] {
				_, next, err := n.Round(r, x)
				x = next
				done <- err
			}
		}()
		defer close(rounds[i])
	}
	round := 0
	step := func() {
		for i := range rounds {
			rounds[i] <- round
		}
		for range rounds {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		round++
	}
	for round < 40 { // past the first checkpoint
		step()
	}
	const measured = 64 // two checkpoints' worth
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("a warmed round of %d edges and %d vehicles: %.1f allocs", edges, edges*perEdge, perRound)
	if perRound > wholeRoundAllocs {
		t.Errorf("a warmed round of %d edges and %d vehicles: %.1f allocs, want at most %d", edges, edges*perEdge, perRound, wholeRoundAllocs)
	}
	if got := cloudNode.Cloud.Latest(); got != round-1 {
		t.Errorf("cloud completed up to round %d, want %d", got, round-1)
	}
}

// wholeRoundAllocs is TestWholeRoundAllocs's bound: the two censuses, the
// checkpoints' share (a round reads ~3.2) and a margin. Before barriers,
// spans, attrs and the cloud session's bodies were reused a round read ~18.
const wholeRoundAllocs = 6
