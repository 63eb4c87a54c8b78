package edge

import (
	"reflect"
	"testing"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

func TestEnablePerceptionValidation(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.EnablePerception(sensor.Mask(0x80)); err == nil {
		t.Error("invalid mask must error")
	}
	if err := d.EnablePerception(sensor.MaskOf(sensor.Radar)); err != nil {
		t.Fatal(err)
	}
	if d.PerceptionShare() != sensor.MaskOf(sensor.Radar) {
		t.Error("perception share not recorded")
	}
	if err := d.EnablePerception(0); err != nil {
		t.Fatal(err)
	}
	if d.PerceptionShare() != 0 {
		t.Error("zero mask should disable perception")
	}
}

// TestEdgePerceptionFollowsLattice: the edge shares radar; only vehicles
// whose decision covers radar receive the edge items, and they are tagged
// with the edge owner id.
func TestEdgePerceptionFollowsLattice(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.EnablePerception(sensor.MaskOf(sensor.Radar)); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginRound(1, 1); err != nil {
		t.Fatal(err)
	}
	// Vehicle 1 shares everything (covers radar); vehicle 2 shares camera
	// only (does not cover radar); vehicle 3 shares radar only (covers it).
	for _, u := range []transport.Upload{
		upload(1, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar),
		upload(2, 1, 5, sensor.Camera),
		upload(3, 1, 7, sensor.Radar),
	} {
		if err := d.AddUpload(u); err != nil {
			t.Fatal(err)
		}
	}
	out := d.Distribute()

	countEdge := func(items []transport.Item) int {
		n := 0
		for _, it := range items {
			if it.Owner == EdgeOwner {
				if it.Modality != sensor.Radar {
					t.Errorf("edge item has modality %v, want radar", it.Modality)
				}
				n++
			}
		}
		return n
	}
	if countEdge(out[1]) != 1 {
		t.Errorf("vehicle 1 (P1) should receive the edge radar item, got %v", out[1])
	}
	if countEdge(out[2]) != 0 {
		t.Errorf("vehicle 2 (camera-only) must not receive edge radar, got %v", out[2])
	}
	if countEdge(out[3]) != 1 {
		t.Errorf("vehicle 3 (radar-only) should receive the edge radar item, got %v", out[3])
	}
}

// TestEdgePerceptionRespectsRatio: at x = 0 no edge items are delivered.
func TestEdgePerceptionRespectsRatio(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.EnablePerception(sensor.MaskAll); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginRound(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AddUpload(upload(1, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar)); err != nil {
		t.Fatal(err)
	}
	for v, items := range d.Distribute() {
		if len(items) != 0 {
			t.Errorf("vehicle %d received %d items at x=0", v, len(items))
		}
	}
}

// TestEdgePerceptionEveryRound: the edge contributes one item per modality
// it perceives in every round, which (owner, round, modality) identifies.
func TestEdgePerceptionEveryRound(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.EnablePerception(sensor.MaskOf(sensor.LiDAR)); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := d.BeginRound(round, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.AddUpload(upload(1, round, 1, sensor.Camera, sensor.LiDAR, sensor.Radar)); err != nil {
			t.Fatal(err)
		}
		want := []transport.Item{{Owner: EdgeOwner, Modality: sensor.LiDAR}}
		if got := d.Distribute()[1]; !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: vehicle 1 was delivered %v, want %v", round, got, want)
		}
	}
}
