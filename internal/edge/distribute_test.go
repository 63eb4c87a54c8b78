package edge

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// referenceDistribute is Distribute as it was before it sized its output
// first: every delivery grown from nil, one append per sharer won. It draws
// from d's rng exactly as that loop did, which is what the two-pass one is
// held to.
func referenceDistribute(d *Distributor) map[int][]transport.Item {
	d.mu.Lock()
	defer d.mu.Unlock()
	vehicles := make([]int, 0, d.n)
	for v, s := range d.slots {
		if s.gen == d.gen {
			vehicles = append(vehicles, v)
		}
	}
	sort.Ints(vehicles)
	out := make(map[int][]transport.Item, len(vehicles))
	for _, a := range vehicles {
		ua := d.slots[a].up
		var items []transport.Item
		for _, b := range vehicles {
			if a == b {
				continue
			}
			ub := d.slots[b].up
			if !d.lat.CanAccess(lattice.Decision(ua.Decision), lattice.Decision(ub.Decision)) {
				continue
			}
			if d.rng.Float64() >= d.x {
				continue
			}
			items = transport.AppendRun(items, b, ub.Share)
		}
		if d.edgeShare != 0 &&
			d.lat.CanAccess(lattice.Decision(ua.Decision), d.edgeDecision) &&
			d.rng.Float64() < d.x {
			items = transport.AppendRun(items, EdgeOwner, d.edgeShare)
		}
		out[a] = items
	}
	return out
}

// fleetUploads draws one round's uploads: a changing subset of the fleet,
// each vehicle on a random decision sharing what that decision shares.
func fleetUploads(t *testing.T, rng *rand.Rand, lat *lattice.Lattice, round, fleet int) []transport.Upload {
	t.Helper()
	var ups []transport.Upload
	for v := 1; v <= fleet; v++ {
		if rng.Intn(8) == 0 {
			continue // sat this round out
		}
		decision := 1 + rng.Intn(lat.K())
		ups = append(ups, upload(v, round, decision, lat.MustShare(lattice.Decision(decision)).Types()...))
	}
	return ups
}

// TestDistributeMatchesReference: over 200 seeded rounds, with edge
// perception off and on, the slab-filling Distribute hands every uploader
// exactly the reference's delivery — nil where the reference's is nil — and
// leaves the rng where the reference leaves it.
func TestDistributeMatchesReference(t *testing.T) {
	for _, perception := range []sensor.Mask{0, sensor.MaskOf(sensor.Camera, sensor.Radar)} {
		lat := lattice.NewPaper()
		got, want := NewDistributor(lat, 99), NewDistributor(lat, 99)
		for _, d := range []*Distributor{got, want} {
			if err := d.EnablePerception(perception); err != nil {
				t.Fatal(err)
			}
		}
		inputs := rand.New(rand.NewSource(7))
		for round := 0; round < 200; round++ {
			x := inputs.Float64()
			ups := fleetUploads(t, inputs, lat, round, 16)
			for _, d := range []*Distributor{got, want} {
				if err := d.BeginRound(round, x); err != nil {
					t.Fatal(err)
				}
				for _, u := range ups {
					if err := d.AddUpload(u); err != nil {
						t.Fatal(err)
					}
				}
			}
			g, w := got.Distribute(), referenceDistribute(want)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("perception %v round %d (x=%.3f): deliveries differ\n got %v\nwant %v", perception, round, x, g, w)
			}
			for v, items := range g {
				if cap(items) != len(items) {
					t.Fatalf("round %d: vehicle %d's delivery has len %d but cap %d", round, v, len(items), cap(items))
				}
			}
			if a, b := got.rng.Float64(), want.rng.Float64(); a != b {
				t.Fatalf("perception %v round %d: next draw %v, the reference's %v", perception, round, a, b)
			}
		}
	}
}

// TestDistributeAllocs pins a round's distribution on a warmed distributor at
// nothing: the result map and the slab every delivery is cut from are the
// distributor's own, kept from call to call.
func TestDistributeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	lat := lattice.NewPaper()
	d := NewDistributor(lat, 1)
	if err := d.BeginRound(1, 0.9); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 16; v++ {
		decision := 1 + v%lat.K()
		if err := d.AddUpload(upload(v, 1, decision, lat.MustShare(lattice.Decision(decision)).Types()...)); err != nil {
			t.Fatal(err)
		}
	}
	d.Distribute() // sizes the scratch
	if allocs := testing.AllocsPerRun(200, func() { d.Distribute() }); allocs != 0 {
		t.Errorf("Distribute at 16 uploaders: %.1f allocs, want 0", allocs)
	}
}
