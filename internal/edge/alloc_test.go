package edge

import (
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// TestAddUploadWarmedSlotAllocs pins what the Distributor's copy of an
// upload costs once the vehicle has a slot: nothing, round after round — the
// items land in the array the slot kept from the vehicle's last upload.
func TestAddUploadWarmedSlotAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	d := NewDistributor(lattice.NewPaper(), 1)
	up := upload(3, 0, 1, sensor.Camera, sensor.LiDAR, sensor.Radar)
	round := 0
	next := func() {
		round++
		up.Round = round
		if err := d.BeginRound(round, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.AddUpload(up); err != nil {
			t.Fatal(err)
		}
	}
	next() // the vehicle's first upload makes its slot
	if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
		t.Errorf("BeginRound + AddUpload on a warmed slot: %.1f allocs/op, want 0", allocs)
	}
	if d.NumUploads() != 1 || d.Census()[0] != 1 {
		t.Errorf("after %d rounds: %d uploads, census %v", round, d.NumUploads(), d.Census())
	}
}

// TestRunRoundAllocs pins a warmed RunRound over TCP, three vehicles
// answering from one goroutine: the policy and delivery bodies are the
// server's own, the deadline timer is reset rather than made, the span takes
// a tracer slot whose storage is reused, and its attrs hold the round and
// ratio unboxed. What is left is the census the round returns, which is the
// caller's.
func TestRunRoundAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Close()
		l.Close()
	})
	dial := func() (transport.Conn, error) { return transport.DialTCP(l.Addr()) }
	vehicles := []*testVehicle{registerVehicle(t, dial, 1), registerVehicle(t, dial, 2), registerVehicle(t, dial, 3)}
	awaitVehicles(t, srv, len(vehicles))
	ups := make([]*transport.Upload, len(vehicles))
	for i := range ups {
		ups[i] = &transport.Upload{Decision: 1, Share: sensor.MaskAll}
	}
	go func() { // the fleet: each round a policy in, an upload out, a delivery in
		for {
			for i, v := range vehicles {
				m, err := v.conn.Recv()
				var pol transport.Policy
				if err == nil {
					err = transport.Decode(m, transport.KindPolicy, &pol)
				}
				if err != nil {
					return
				}
				ups[i].Round = pol.Round
				if v.conn.Send(transport.Message{Kind: transport.KindUpload, Body: ups[i]}) != nil {
					return
				}
			}
			for _, v := range vehicles {
				if _, err := v.conn.Recv(); err != nil {
					return
				}
			}
		}
	}()
	round := 0
	step := func() {
		round++
		census, err := srv.RunRound(round, 1, 5*time.Second)
		if err != nil || census[0] != len(vehicles) {
			t.Fatalf("round %d: census %v, %v", round, census, err)
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(100, step)
	t.Logf("a three-vehicle RunRound: %.1f allocs", allocs)
	if allocs > runRoundAllocs {
		t.Errorf("a three-vehicle RunRound: %.1f allocs, want at most %d", allocs, runRoundAllocs)
	}
}

// runRoundAllocs is TestRunRoundAllocs's pinned count.
const runRoundAllocs = 1
