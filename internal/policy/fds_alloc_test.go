package policy

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/lattice"
)

// ringGraph is the load-scale topology: every region adjacent to its two
// ring neighbours.
type ringGraph struct{ m int }

func (g ringGraph) M() int { return g.m }
func (g ringGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.6
	}
	if d := (i - j + g.m) % g.m; d == 1 || d == g.m-1 {
		return 0.2
	}
	return 0
}
func (g ringGraph) Neighbors(i int) []int { return []int{(i + g.m - 1) % g.m, (i + 1) % g.m} }

// ringFixture is the M-region ring at beta 3 with the two fields the load
// runs use: a band holding decision 1 in 0.7 ± 0.1 and leaving the rest
// free (the floods' P1BandField), and a two-sided field that constrains
// every share.
func ringFixture(tb testing.TB, m int) (model *game.Model, fields map[string]*Field) {
	tb.Helper()
	betas := make([]float64, m)
	for i := range betas {
		betas[i] = 3
	}
	model, err := game.NewModel(lattice.PaperPayoffs(), ringGraph{m}, betas)
	if err != nil {
		tb.Fatal(err)
	}
	band, err := NewUniformField(m, []float64{0.7, 0, 0, 0, 0, 0, 0, 0}, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range band.P {
		for k := 1; k < model.K(); k++ {
			band.P[i][k].Lo, band.P[i][k].Hi = 0, 1
		}
	}
	twoSided, err := NewUniformField(m, []float64{0.65, 0, 0, 0, 0.25, 0, 0.05, 0.05}, 0.04)
	if err != nil {
		tb.Fatal(err)
	}
	return model, map[string]*Field{"band": band, "two-sided": twoSided}
}

// reshuffle draws a random distribution for every region of s.
func reshuffle(rng *rand.Rand, s *game.State) {
	for i := range s.P {
		for k := range s.P[i] {
			s.P[i][k] = rng.Float64()
		}
		game.Normalize(s.P[i])
	}
}

// TestUpdateRatiosAllocs pins a warmed control round at M=1024 on the ring
// at no allocation — the report it returns is the controller's own — on
// random censuses under both a one-sided band and a field that constrains
// every share, so the empty-set fallback and best-effort dropping run on the
// controller's scratch too.
func TestUpdateRatiosAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const m = 1024
	model, fields := ringFixture(t, m)
	for name, field := range fields {
		fds, err := NewFDS(model, field, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		s := game.NewUniformState(m, model.K(), 0.2)
		allocs := testing.AllocsPerRun(10, func() {
			reshuffle(rng, s)
			if _, err := fds.UpdateRatios(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s field: UpdateRatios at M=%d: %.0f allocs, want 0", name, m, allocs)
		}
	}
}

// BenchmarkUpdateRatios times one sweep at M=1024 on the ring, on a fixed
// set of random censuses, under the band (one decision tracked) and the
// two-sided field (all eight tracked: the case with nothing to skip).
func BenchmarkUpdateRatios(b *testing.B) {
	const m = 1024
	model, fields := ringFixture(b, m)
	for _, name := range []string{"band", "two-sided"} {
		b.Run(name, func(b *testing.B) {
			fds, err := NewFDS(model, fields[name], 0.1)
			if err != nil {
				b.Fatal(err)
			}
			s := game.NewUniformState(m, model.K(), 0.2)
			reshuffle(rand.New(rand.NewSource(1)), s)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := fds.UpdateRatios(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
