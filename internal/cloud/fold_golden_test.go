package cloud

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/policy"
)

// goldenGraph is a region graph private to the golden test, so the golden
// depends on no graph code outside this file: a ring (every region adjacent
// to its two neighbours) or a dense all-to-all coupling.
type goldenGraph struct {
	m     int
	dense bool
}

func (g goldenGraph) M() int { return g.m }

func (g goldenGraph) Gamma(i, j int) float64 {
	switch {
	case g.dense && i == j:
		return 0.9
	case g.dense:
		return 0.1 / float64(g.m-1)
	case i == j:
		return 0.6
	}
	if d := (i - j + g.m) % g.m; d == 1 || d == g.m-1 {
		return 0.2
	}
	return 0
}

func (g goldenGraph) Neighbors(i int) []int {
	if !g.dense {
		return []int{(i + g.m - 1) % g.m, (i + 1) % g.m}
	}
	out := make([]int, 0, g.m-1)
	for j := 0; j < g.m; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// goldenField returns the P1-band field of the load harness (decision 1 held
// in 0.7 +- 0.1, the rest free) or a field that bounds every share from both
// sides around the paper's experiment target.
func goldenField(t *testing.T, m int, twoSided bool) *policy.Field {
	t.Helper()
	target := []float64{0.7, 0, 0, 0, 0, 0, 0, 0}
	eps := 0.1
	if twoSided {
		target = []float64{0.65, 0, 0, 0, 0.25, 0, 0.05, 0.05}
		eps = 0.04
	}
	field, err := policy.NewUniformField(m, target, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !twoSided {
		for i := 0; i < m; i++ {
			for k := 1; k < len(target); k++ {
				field.P[i][k].Lo, field.P[i][k].Hi = 0, 1
			}
		}
	}
	return field
}

// goldenCensuses draws one round's census set from a shadow population that
// follows the fold's ratios under the logit dynamics (a closed loop, so
// ratios come to rest on interior boundaries of their condition sets instead
// of saturating): 100 vehicles per region sampled from the shadow shares.
// About a tenth of the regions are missing and one in forty reports an empty
// census.
func goldenCensuses(t *testing.T, rng *rand.Rand, dyn *game.LogitDynamics, shadow *game.State, x []float64) map[int][]int {
	t.Helper()
	copy(shadow.X, x)
	if err := dyn.Step(shadow); err != nil {
		t.Fatal(err)
	}
	out := make(map[int][]int, len(x))
	for i, p := range shadow.P {
		if rng.Float64() < 0.1 {
			continue
		}
		counts := make([]int, len(p))
		if rng.Intn(40) != 0 {
			for v := 0; v < 100; v++ {
				u, k := rng.Float64(), 0
				for k < len(p)-1 && u >= p[k] {
					u -= p[k]
					k++
				}
				counts[k]++
			}
		}
		out[i] = counts
	}
	return out
}

// goldenConfig is one of the golden file's four fold configurations.
type goldenConfig struct {
	name     string
	graph    goldenGraph
	twoSided bool
	seed     int64
}

var goldenConfigs = []goldenConfig{
	{"cycle64/p1band", goldenGraph{m: 64}, false, 101},
	{"cycle64/twosided", goldenGraph{m: 64}, true, 102},
	{"dense16/p1band", goldenGraph{m: 16, dense: true}, false, 103},
	{"dense16/twosided", goldenGraph{m: 16, dense: true}, true, 104},
}

// goldenRun is a configuration's moving parts: the controller and initial
// state a fold (or a Server) is built over, and the closed-loop census
// source — next(x) draws the round's censuses given the fold's ratios.
type goldenRun struct {
	model   *game.Model
	fds     *policy.FDS
	initial *game.State
	next    func(x []float64) map[int][]int
}

func (cfg goldenConfig) run(t *testing.T) goldenRun {
	t.Helper()
	m := cfg.graph.m
	beta := make([]float64, m)
	for i := range beta {
		beta[i] = 2 + 0.5*float64(i%5)
	}
	model, err := game.NewModel(lattice.PaperPayoffs(), cfg.graph, beta)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's step bound on the band field; a wide one on the
	// two-sided field, so ratios land on interior set boundaries (-a/b of
	// the linearized conditions) rather than a whole step away.
	lambda := 0.1
	if cfg.twoSided {
		lambda = 0.5
	}
	fds, err := policy.NewFDS(model, goldenField(t, m, cfg.twoSided), lambda)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := game.NewLogitDynamics(model, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	shadow := game.NewUniformState(m, model.K(), 0.2)
	rng := rand.New(rand.NewSource(cfg.seed))
	return goldenRun{
		model:   model,
		fds:     fds,
		initial: game.NewUniformState(m, model.K(), 0.2),
		next:    func(x []float64) map[int][]int { return goldenCensuses(t, rng, dyn, shadow, x) },
	}
}

// foldGoldenText folds 300 seeded rounds through Fold.Apply on four
// configurations and renders, for each, a CRC over the bits of every round's
// ratio vector, one over every region's linearization coefficients after
// every round, the final state hash, and the final ratios bit for bit.
func foldGoldenText(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, cfg := range goldenConfigs {
		run := cfg.run(t)
		model := run.model
		fold, err := NewFold(run.fds, run.initial)
		if err != nil {
			t.Fatal(err)
		}
		chain, lin := crc32.NewIEEE(), crc32.NewIEEE()
		var word [8]byte
		put := func(h hash.Hash32, v float64) {
			binary.BigEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
		for round := 0; round < 300; round++ {
			if err := fold.Apply(run.next(fold.State().X)); err != nil {
				t.Fatal(err)
			}
			for i, x := range fold.State().X {
				put(chain, x)
				coeffs, err := model.Linearize(fold.State(), i)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range coeffs {
					put(lin, c.Alpha1.A)
					put(lin, c.Alpha1.B)
					put(lin, c.Alpha2.A)
					put(lin, c.Alpha2.B)
				}
			}
		}
		fmt.Fprintf(&sb, "%s chain %08x linearize %08x hash %08x\n", cfg.name, chain.Sum32(), lin.Sum32(), fold.Hash())
		for i, x := range fold.State().X {
			fmt.Fprintf(&sb, "%s x[%d] %016x\n", cfg.name, i, math.Float64bits(x))
		}
	}
	return sb.String()
}

// TestFoldGolden pins the fold kernel bit for bit against a file generated
// by the allocating kernel this one replaced (commit 9f1206c): the ratios of
// every round, the final ratios and the JSON state hash. The file is not to
// be regenerated from the code it checks; a deliberate change of the fold's
// arithmetic replaces it with the bytes this test prints.
func TestFoldGolden(t *testing.T) {
	got := foldGoldenText(t)
	golden := filepath.Join("testdata", "fold_300rounds.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v\ngot:\n%s", golden, err, got)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("fold drifted from %s at line %d:\ngot  %s\nwant %s", golden, i+1, gl[i], w)
		}
	}
	t.Fatalf("fold drifted from %s: golden has %d lines, got %d", golden, len(wl), len(gl))
}
