package edge

import (
	"testing"

	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/sensor"
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
