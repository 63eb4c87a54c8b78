package vehicle

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

func profile(id int) Profile {
	return Profile{
		ID:            id,
		Equipped:      sensor.MaskAll,
		Desired:       sensor.MaskAll,
		PrivacyWeight: 1,
		Beta:          3,
		Tau:           0.15,
	}
}

func TestProfileValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"bad equipped", func(p *Profile) { p.Equipped = sensor.Mask(0x80) }},
		{"bad desired", func(p *Profile) { p.Desired = sensor.Mask(0x80) }},
		{"negative privacy", func(p *Profile) { p.PrivacyWeight = -1 }},
		{"negative beta", func(p *Profile) { p.Beta = -1 }},
		{"zero tau", func(p *Profile) { p.Tau = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := profile(1)
			tt.mutate(&p)
			if p.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
	good := profile(1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestNewAgentAndDecision(t *testing.T) {
	a, err := NewAgent(profile(1), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Decision()
	if d < 1 || d > 8 {
		t.Errorf("initial decision %d out of range", d)
	}
	if err := a.SetDecision(3); err != nil {
		t.Fatal(err)
	}
	if a.Decision() != 3 {
		t.Error("SetDecision did not apply")
	}
	if err := a.SetDecision(0); err == nil {
		t.Error("decision 0 must be rejected")
	}
	bad := profile(1)
	bad.Tau = 0
	if _, err := NewAgent(bad, lattice.PaperPayoffs(), 1); err == nil {
		t.Error("invalid profile must be rejected")
	}
}

func TestFitnessShape(t *testing.T) {
	a, err := NewAgent(profile(1), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := []float64{0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125}
	q, err := a.Fitness(0.8, shares)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 8 {
		t.Fatalf("fitness has %d entries", len(q))
	}
	// Decision 8 has zero utility and zero cost.
	if q[7] != 0 {
		t.Errorf("q8 = %f, want 0", q[7])
	}
	// Raising x weakly increases all fitness values.
	q2, err := a.Fitness(1.0, shares)
	if err != nil {
		t.Fatal(err)
	}
	for k := range q {
		if q2[k] < q[k]-1e-12 {
			t.Errorf("fitness %d decreased with x", k+1)
		}
	}
	if _, err := a.Fitness(0.5, shares[:3]); err == nil {
		t.Error("short shares must error")
	}
}

// TestFitnessDesiredAttenuation: a vehicle that only desires radar gains no
// utility from camera-only shares.
func TestFitnessDesiredAttenuation(t *testing.T) {
	p := profile(1)
	p.Desired = sensor.MaskOf(sensor.Radar)
	a, err := NewAgent(p, lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Population shares all camera-only (decision 5).
	shares := make([]float64, 8)
	shares[4] = 1
	q, err := a.Fitness(1.0, shares)
	if err != nil {
		t.Fatal(err)
	}
	// Decision 1 can access decision 5's camera share, but the vehicle does
	// not desire camera: utility contribution must be zero, so q1 = -w*g1.
	if math.Abs(q[0]-(-1.0)) > 1e-9 {
		t.Errorf("q1 = %f, want -1 (pure privacy cost)", q[0])
	}
}

// TestPrivacyWeightShiftsChoice: a highly privacy-sensitive agent picks
// low-sharing decisions far more often.
func TestPrivacyWeightShiftsChoice(t *testing.T) {
	shares := []float64{0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125}
	count := func(w float64) int {
		p := profile(1)
		p.PrivacyWeight = w
		a, err := NewAgent(p, lattice.PaperPayoffs(), 99)
		if err != nil {
			t.Fatal(err)
		}
		high := 0
		for trial := 0; trial < 400; trial++ {
			if err := a.Revise(0.9, shares, 1); err != nil {
				t.Fatal(err)
			}
			if a.Decision() <= 4 { // shares two or more modalities
				high++
			}
		}
		return high
	}
	tolerant := count(0.1)
	sensitive := count(5.0)
	if sensitive >= tolerant {
		t.Errorf("privacy-sensitive agent chose high-sharing %d times vs tolerant %d", sensitive, tolerant)
	}
}

func TestReviseValidation(t *testing.T) {
	a, err := NewAgent(profile(1), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]float64, 8)
	shares[0] = 1
	if err := a.Revise(0.5, shares, -0.1); err == nil {
		t.Error("negative mu must error")
	}
	if err := a.Revise(0.5, shares, 1.1); err == nil {
		t.Error("mu > 1 must error")
	}
	// mu = 0 never revises.
	if err := a.SetDecision(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Revise(0.5, shares, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.Decision() != 2 {
		t.Error("mu=0 must never change the decision")
	}
}

func TestBuildUpload(t *testing.T) {
	p := profile(4)
	p.Equipped = sensor.MaskOf(sensor.Camera, sensor.Radar) // no lidar on board
	a, err := NewAgent(p, lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetDecision(1); err != nil { // share everything it has
		t.Fatal(err)
	}
	want := transport.Upload{Vehicle: 4, Round: 5, Decision: 1, Share: sensor.MaskOf(sensor.Camera, sensor.Radar)}
	if up := a.BuildUpload(5); up != want {
		t.Errorf("upload = %+v, want %+v (camera and radar, no lidar on board)", up, want)
	}
	// Decision 8 shares nothing.
	if err := a.SetDecision(8); err != nil {
		t.Fatal(err)
	}
	if got := a.BuildUpload(6); got.Share != 0 {
		t.Errorf("decision 8 upload = %+v", got)
	}
}

func TestAbsorbDelivery(t *testing.T) {
	p := profile(1)
	p.Desired = sensor.MaskOf(sensor.Radar)
	a, err := NewAgent(p, lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := transport.Delivery{
		Round: 1,
		Items: []transport.Item{
			{Owner: 2, Modality: sensor.Radar},
			{Owner: 2, Modality: sensor.Camera}, // undesired
		},
	}
	if err := a.AbsorbDelivery(d, sensor.TableIII()); err != nil {
		t.Fatal(err)
	}
	if a.ReceivedItems != 2 {
		t.Errorf("ReceivedItems = %d", a.ReceivedItems)
	}
	// Only radar counts: Table III sum contribution 7.
	if math.Abs(a.ReceivedUtility-7) > 1e-12 {
		t.Errorf("ReceivedUtility = %f, want 7", a.ReceivedUtility)
	}
}

// TestAbsorbDeliveryMatchesPerItemSum: AbsorbDelivery looks a modality's
// contribution up once per delivery, and must still report, bit for bit, what
// one lookup and one addition per item reported — the reference loop below —
// on a fleet-sized delivery that arrives on top of a utility the earlier
// rounds left inexact.
func TestAbsorbDeliveryMatchesPerItemSum(t *testing.T) {
	p := profile(1)
	p.Desired = sensor.MaskOf(sensor.Camera, sensor.Radar)
	a, err := NewAgent(p, lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	table := sensor.TableIII()
	var d transport.Delivery
	for i := 0; i < 60; i++ {
		d.Items = append(d.Items, transport.Item{Owner: 2 + i/3, Modality: sensor.AllTypes()[(i*7)%3]})
	}
	const prior = 0.1 + 0.7 // not representable: every addition after it rounds
	a.ReceivedUtility, a.ReceivedItems = prior, 5

	want, wantItems := prior, 5
	for _, item := range d.Items {
		wantItems++
		if !p.Desired.Has(item.Modality) {
			continue
		}
		u, err := table.SumContribution(item.Modality)
		if err != nil {
			t.Fatal(err)
		}
		want += u
	}
	if err := a.AbsorbDelivery(d, table); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.ReceivedUtility) != math.Float64bits(want) || a.ReceivedItems != wantItems {
		t.Errorf("AbsorbDelivery = %v (%#x) over %d items, per-item sum = %v (%#x) over %d",
			a.ReceivedUtility, math.Float64bits(a.ReceivedUtility), a.ReceivedItems,
			want, math.Float64bits(want), wantItems)
	}

	// A modality the table does not know still fails the delivery, wherever
	// its value falls relative to the three it does.
	a.Profile.Desired = sensor.Mask(0xFF)
	for _, bad := range []sensor.Type{sensor.Camera | sensor.LiDAR, sensor.Radar << 1, 0x80} {
		err := a.AbsorbDelivery(transport.Delivery{Items: []transport.Item{{Owner: 2, Modality: bad}}}, table)
		if err == nil {
			t.Errorf("modality %#x absorbed without error", uint8(bad))
		}
	}
}
