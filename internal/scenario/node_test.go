package scenario

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestStartedNodesFoldTheRunnersHash: the nodes of a compiled spec, each
// started by one call over loopback TCP on explicit ports — the way cpnode
// starts them — with every edge running its rounds free, as cpnode's edge
// does, and nothing holding them in lockstep, fold the hash the runner
// folds for the same spec and seed.
func TestStartedNodesFoldTheRunnersHash(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full scenario run in -short mode")
	}
	spec := loadSpec(t, "baseline.json")
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := spec.compile(1)
	if err != nil {
		t.Fatal(err)
	}
	// Each listener name of the plan gets a loopback port of its own.
	addrs := map[string]string{}
	port := func(name string) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[name] = l.Addr().String()
		return addrs[name]
	}

	p.cloud.Listen = port(p.cloud.Listen)
	cloudNode, err := p.cloud.Start(Net{})
	if err != nil {
		t.Fatal(err)
	}
	defer cloudNode.Stop()

	var edges []*Node
	for _, nc := range p.edges {
		nc.Listen, nc.CloudAddr = port(nc.Listen), p.cloud.Listen
		node, err := nc.Start(Net{})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		edges = append(edges, node)
	}
	for _, f := range p.fleets {
		f.nc.EdgeAddr = addrs[f.nc.EdgeAddr]
		node, err := f.nc.StartFleet(f.spec, Net{})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(edges))
	for _, node := range edges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc := node.Config
			for deadline := time.Now().Add(10 * time.Second); node.Edge.NumVehicles() < nc.Vehicles; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("edge %d: %d/%d vehicles registered", nc.ID, node.Edge.NumVehicles(), nc.Vehicles)
					return
				}
			}
			x := nc.X0
			for r := 0; r < nc.Rounds; r++ {
				_, next, err := node.Round(r, x)
				if err != nil {
					errs <- fmt.Errorf("edge %d round %d: %w", nc.ID, r, err)
					return
				}
				x = next
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%08x", cloudNode.Cloud.StateHash()), "5a36ca17"; got != want {
		t.Errorf("cloud state hash = %s, want the runner's %s", got, want)
	}
}
