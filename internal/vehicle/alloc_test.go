package vehicle

import (
	"reflect"
	"testing"

	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/sensor"
)

// TestBuildUploadAllocs pins an upload at nothing: it is the decision and
// the share mask, with no item list.
func TestBuildUploadAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	a, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetDecision(1); err != nil { // share-all: three items
		t.Fatal(err)
	}
	round := 0
	allocs := testing.AllocsPerRun(200, func() {
		round++
		if up := a.BuildUpload(round); up.Share != sensor.MaskAll {
			t.Fatalf("upload shares %v, want all three", up.Share)
		}
	})
	if allocs != 0 {
		t.Errorf("BuildUpload: %.1f allocs, want 0", allocs)
	}
}

// TestReviseAllocs pins a revision on a warmed agent at nothing: the fitness
// vector is the agent's own, and the choice probabilities overwrite it in
// place. Fitness, for callers outside the round, still hands out a fresh
// vector — and Revise still draws from softmax of exactly those values.
func TestReviseAllocs(t *testing.T) {
	a, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := []float64{0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	revise := func() {
		if err := a.Revise(0.8, shares, 1); err != nil {
			t.Fatal(err)
		}
	}
	revise()
	q1, err := a.Fitness(0.8, shares)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := a.Fitness(0.8, shares)
	if &q1[0] == &q2[0] || &q1[0] == &a.q[0] {
		t.Error("Fitness handed out a vector it or Revise will write again")
	}
	want := make([]float64, len(q1))
	softmax(q1, a.Profile.Tau, want)
	if !reflect.DeepEqual(a.q, want) {
		t.Errorf("Revise chose from %v, softmax of Fitness is %v", a.q, want)
	}
	if israce.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(200, revise); allocs != 0 {
		t.Errorf("Revise on a warmed agent: %.1f allocs, want 0", allocs)
	}
}
