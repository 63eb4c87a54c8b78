package cloud

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/policy"
	"repro/internal/transport"
)

// starGraph couples region 0 to every other region and the others to it
// alone: the hub reads everyone, a leaf reads only the hub.
type starGraph struct{ m int }

func (g starGraph) M() int { return g.m }

func (g starGraph) Gamma(i, j int) float64 {
	switch {
	case i == j:
		return 0.7
	case i == 0:
		return 0.3 // hub -> leaf j
	case j == 0:
		return 0.3 / float64(g.m-1) // leaf i -> hub
	}
	return 0
}

func (g starGraph) Neighbors(i int) []int {
	if i != 0 {
		return []int{0}
	}
	out := make([]int, 0, g.m-1)
	for j := 1; j < g.m; j++ {
		out = append(out, j)
	}
	return out
}

// refoldFDS builds a controller over g on the paper's payoffs, steering
// toward the golden test's band or two-sided field.
func refoldFDS(t testing.TB, g game.Graph, twoSided bool, patience int) (*policy.FDS, *game.Model) {
	t.Helper()
	m := g.M()
	beta := make([]float64, m)
	for i := range beta {
		beta[i] = 2 + 0.5*float64(i%5)
	}
	model, err := game.NewModel(lattice.PaperPayoffs(), g, beta)
	if err != nil {
		t.Fatal(err)
	}
	target, eps, lambda := []float64{0.7, 0, 0, 0, 0, 0, 0, 0}, 0.1, 0.1
	if twoSided {
		target, eps, lambda = []float64{0.65, 0, 0, 0, 0.25, 0, 0.05, 0.05}, 0.04, 0.5
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
	fds, err := policy.NewFDS(model, field, lambda)
	if err != nil {
		t.Fatal(err)
	}
	fds.StallPatience = patience
	return fds, model
}

// fullRefoldLocked is the rewind the sparse one replaced, kept as its
// reference: rewind the fold to entry idx's snapshot, merge the late
// censuses, and run Fold.Apply — all M regions — over every buffered round
// from there, taking fresh snapshots on the way.
func (s *Server) fullRefoldLocked(t *testing.T, idx int, late map[int][]int) {
	t.Helper()
	e := s.window[idx]
	for edge, counts := range late {
		e.set.put(edge, counts, len(counts))
	}
	s.fold.SetState(e.preState.Clone())
	if err := s.fold.SetMemory(e.preFDS); err != nil {
		t.Fatal(err)
	}
	for n, entry := range s.window[idx:] {
		if n > 0 {
			entry.preState = s.fold.State().Clone()
			entry.preFDS = s.fold.Memory()
		}
		if err := s.fold.ApplySet(entry.set); err != nil {
			t.Fatal(err)
		}
	}
}

// placeRound lands censuses on round's barrier and, when complete is set,
// completes it with whoever reported — the digest path's way of finishing a
// round under the lock, with no deadline to wait for.
func placeRound(t *testing.T, srv *Server, round int, censuses []transport.Census, complete bool) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	b, late, err := srv.eng.Place(round, censuses, false)
	if err != nil || late {
		t.Fatalf("placing round %d: late=%v err=%v", round, late, err)
	}
	if complete {
		srv.completeRoundLocked(round, b, b.Size() < srv.m)
	}
}

// sameBits reports whether two states and controller memories agree in the
// bits of every float, so 0 and -0 compare unequal, as they hash.
func sameBits(a, b *game.State, am, bm policy.FDSMemory) bool {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(v, w float64) bool { return math.Float64bits(v) == math.Float64bits(w) })
	}
	return slices.EqualFunc(a.P, b.P, same) && same(a.X, b.X) &&
		same(am.LastShortfall, bm.LastShortfall) && slices.Equal(am.StallRounds, bm.StallRounds)
}

// bitsOf renders what sameBits compares, for a failure message.
func bitsOf(st *game.State, mem policy.FDSMemory) string {
	var b []byte
	for i, p := range st.P {
		for _, v := range append(p[:len(p):len(p)], st.X[i], mem.LastShortfall[i]) {
			b = fmt.Appendf(b, "%016x ", math.Float64bits(v))
		}
		b = fmt.Appendf(b, "%d\n", mem.StallRounds[i])
	}
	return string(b)
}

// requireSameTimeline fails unless srv (sparse rewinds) stands exactly where
// ref (full re-folds) does: live state and controller memory bit for bit,
// every window entry's round, inputs and snapshots, and the state hash.
func requireSameTimeline(t *testing.T, when string, srv, ref *Server) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if sm, rm := srv.fold.Memory(), ref.fold.Memory(); !sameBits(srv.fold.State(), ref.fold.State(), sm, rm) {
		t.Fatalf("%s: live state or FDS memory differs from the full re-fold's\n got:\n%s\nwant:\n%s",
			when, bitsOf(srv.fold.State(), sm), bitsOf(ref.fold.State(), rm))
	}
	if got, want := srv.fold.Hash(), ref.fold.Hash(); got != want {
		t.Fatalf("%s: Fold.Hash() = %08x, the full re-fold's %08x", when, got, want)
	}
	if len(srv.window) != len(ref.window) {
		t.Fatalf("%s: window holds %d rounds, reference %d", when, len(srv.window), len(ref.window))
	}
	for i, e := range srv.window {
		r := ref.window[i]
		if e.round != r.round || e.degraded != r.degraded || !maps.EqualFunc(e.set.asMap(), r.set.asMap(), slices.Equal[[]int]) {
			t.Fatalf("%s: window[%d] is round %d (degraded %v), reference round %d (degraded %v), or their censuses differ",
				when, i, e.round, e.degraded, r.round, r.degraded)
		}
		if !sameBits(e.preState, r.preState, e.preFDS, r.preFDS) {
			t.Fatalf("%s: window[%d] (round %d) snapshot differs from the full re-fold's\n got:\n%s\nwant:\n%s",
				when, i, e.round, bitsOf(e.preState, e.preFDS), bitsOf(r.preState, r.preFDS))
		}
	}
}

// TestSparseRefoldMatchesFull drives seeded schedules of rounds and late
// censuses through two coordinators — one rewinding the way the code does,
// one re-folding every region of every replayed round — and requires them
// to agree after every rewind on everything a rewind writes. The schedules
// cover a ring, a dense graph and a star; windows of 1 to 8 rounds; a stall
// patience of 1 or 2, so nudges fire and stall memory is live; degraded
// rounds with regions missing, empty censuses, an abandoned round leaving a
// gap in the window; late censuses two to a batch, for one region twice, for
// a region the round lacked, equal to the folded one, and different in
// counts but equal in shares; and an initial state with -0 planted among its
// shares and ratios, which only a comparison by bits tells from 0 — a late
// census that restates a silent region's initial shares differs from them in
// nothing else.
func TestSparseRefoldMatchesFull(t *testing.T) {
	const schedules = 600
	graphs := []game.Graph{goldenGraph{m: 64}, goldenGraph{m: 16, dense: true}, starGraph{m: 24}}
	negZero := math.Copysign(0, -1)
	var rewinds, replayed, regions, recomputed float64
	for seed := 0; seed < schedules; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := graphs[seed%len(graphs)]
		m, lag, patience, twoSided := g.M(), 1+rng.Intn(8), 1+rng.Intn(2), rng.Intn(2) == 0

		// An initial state whose zeros are partly negative.
		initial := game.NewUniformState(m, 8, 0.2)
		for i := range initial.P {
			p := initial.P[i]
			for k := range p {
				p[k] = 0
				if rng.Intn(2) == 0 {
					p[k] = negZero
				}
			}
			p[rng.Intn(8)] = 1
			switch rng.Intn(4) {
			case 0:
				initial.X[i] = negZero
			case 1:
				initial.X[i] = rng.Float64()
			}
		}
		build := func() *Server {
			fds, _ := refoldFDS(t, g, twoSided, patience)
			srv, err := NewServer(fds, initial)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			srv.SetFixedLag(lag)
			return srv
		}
		srv, ref := build(), build()
		// In every fourth schedule the last region never reports on time, so
		// its initial shares — negative zeros included — live on in every
		// snapshot until a late census replaces them.
		quiet := -1
		if seed%4 == 0 {
			quiet = m - 1
		}

		// counts draws one census: 20 vehicles over a few decisions, leaning
		// on decision 1 so some regions sit inside their band and hold still.
		counts := func() []int {
			c := make([]int, 8)
			if rng.Intn(12) == 0 {
				return c // an edge with no vehicles
			}
			a, b := rng.Intn(8), rng.Intn(8)
			for v := 0; v < 20; v++ {
				switch u := rng.Float64(); {
				case u < 0.55:
					c[0]++
				case u < 0.8:
					c[a]++
				default:
					c[b]++
				}
			}
			return c
		}
		roundCensuses := func(round int, degraded bool) []transport.Census {
			var out []transport.Census
			for edge := 0; edge < m; edge++ {
				if edge == quiet || degraded && rng.Intn(4) == 0 && len(out) > 0 {
					continue
				}
				out = append(out, transport.Census{Edge: edge, Round: round, Counts: counts()})
			}
			return out
		}
		// late submits a batch of late censuses for one completed round to
		// both coordinators — the real ingest on one, the reference re-fold
		// on the other — and compares them.
		late := func(round int, batch []transport.Census) {
			if _, err := srv.SubmitBatch(transport.CensusBatch{Round: round, Censuses: batch}); err != nil {
				t.Fatalf("seed %d: late batch for round %d: %v", seed, round, err)
			}
			ref.mu.Lock()
			for _, c := range batch {
				idx := ref.windowIndexLocked(round)
				if idx < 0 {
					continue
				}
				if prev := ref.window[idx].set.Get(c.Edge); prev != nil && slices.Equal(prev, c.Counts) {
					continue
				}
				ref.fullRefoldLocked(t, idx, map[int][]int{c.Edge: c.Counts})
			}
			ref.mu.Unlock()
			requireSameTimeline(t, fmt.Sprintf("seed %d (%T m=%d lag=%d patience=%d), late batch of %d for round %d",
				seed, g, m, lag, patience, len(batch), round), srv, ref)
		}

		round := 0
		var completed []int
		for step := 0; step < lag+6; step++ {
			if step == 2 {
				// Round `round` gathers two censuses and is abandoned when the
				// next one completes: a gap in the window.
				for _, s := range []*Server{srv, ref} {
					placeRound(t, s, round, []transport.Census{
						{Edge: 0, Round: round, Counts: []int{1, 0, 0, 0, 0, 0, 0, 0}},
						{Edge: 1, Round: round, Counts: []int{0, 1, 0, 0, 0, 0, 0, 0}}}, false)
				}
				round++
			}
			censuses := roundCensuses(round, rng.Intn(3) == 0)
			for _, s := range []*Server{srv, ref} {
				placeRound(t, s, round, censuses, true)
			}
			completed = append(completed, round)
			round++
			if step < 2 {
				continue
			}
			// One or two late submissions against the window as it stands.
			for n := 1 + rng.Intn(2); n > 0; n-- {
				target := completed[len(completed)-1-rng.Intn(min(lag, len(completed)))]
				edge := rng.Intn(m)
				srv.mu.Lock()
				folded := srv.window[srv.windowIndexLocked(target)].set.Get(edge)
				srv.mu.Unlock()
				switch rng.Intn(6) {
				case 0: // two regions in one batch
					other := (edge + 1 + rng.Intn(m-1)) % m
					late(target, []transport.Census{
						{Edge: edge, Round: target, Counts: counts()},
						{Edge: other, Round: target, Counts: counts()}})
				case 1: // the same region corrected twice
					late(target, []transport.Census{{Edge: edge, Round: target, Counts: counts()}})
					late(target, []transport.Census{{Edge: edge, Round: target, Counts: counts()}})
				case 2: // equal to what the round folded: absorbed
					if folded != nil {
						late(target, []transport.Census{{Edge: edge, Round: target, Counts: slices.Clone(folded)}})
						break
					}
					fallthrough
				case 3: // other counts, the same shares
					double := make([]int, 8)
					for k, c := range folded {
						double[k] = 2 * c
					}
					late(target, []transport.Census{{Edge: edge, Round: target, Counts: double}})
				case 4: // the quiet region's initial shares again, the zeros positive
					if quiet >= 0 {
						hot := make([]int, 8)
						hot[slices.Index(initial.P[quiet], 1)] = 7
						late(target, []transport.Census{{Edge: quiet, Round: target, Counts: hot}})
						break
					}
					fallthrough
				default:
					late(target, []transport.Census{{Edge: edge, Round: target, Counts: counts()}})
				}
			}
			if step == 3 {
				// The abandoned round is below the watermark and in no window.
				late(completed[2]-1, []transport.Census{{Edge: 2, Round: completed[2] - 1, Counts: counts()}})
			}
		}
		reg := srv.Registry()
		rw, rp := metricValue(t, reg, "consensus_rewinds_total"), metricValue(t, reg, "consensus_replayed_rounds_total")
		rewinds, replayed = rewinds+rw, replayed+rp
		regions += rp * float64(m)
		recomputed += metricValue(t, reg, "consensus_refolded_regions_total")
	}
	t.Logf("%d schedules: %.0f rewinds replayed %.0f rounds and recomputed %.0f of their %.0f regions (%.1f %%)",
		schedules, rewinds, replayed, recomputed, regions, 100*recomputed/regions)
	if rewinds < schedules || recomputed == 0 || recomputed >= regions {
		t.Errorf("the schedules must rewind, recompute some regions and skip others: %.0f rewinds, %.0f of %.0f regions recomputed",
			rewinds, recomputed, regions)
	}
}

// rewindServer is a coordinator over g with a window of 8 rounds, all eight
// folded from seeded censuses, and the two census vectors a caller
// alternates between to rewind any region of any of them.
func rewindServer(t testing.TB, g game.Graph) (srv *Server, alt [2][]int) {
	t.Helper()
	fds, model := refoldFDS(t, g, false, 8)
	srv, err := NewServer(fds, game.NewUniformState(g.M(), model.K(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetFixedLag(8)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		batch := transport.CensusBatch{Round: round}
		for edge := 0; edge < g.M(); edge++ {
			counts := make([]int, model.K())
			for v := 0; v < 100; v++ {
				counts[rng.Intn(len(counts))]++
			}
			batch.Censuses = append(batch.Censuses, transport.Census{Edge: edge, Round: round, Counts: counts})
		}
		if _, err := srv.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return srv, [2][]int{{60, 10, 5, 5, 5, 5, 5, 5}, {5, 5, 5, 5, 10, 60, 5, 5}}
}

// TestRewindAllocs pins a rewind four rounds deep at the few heap objects of
// its span and its log line, which do not grow with the region count: no
// snapshot, for the window's are rewritten in place, and no late census's
// map, copy of the live controller memory or submitter set, which are the
// server's scratch. 64 regions and 1024 cost the same.
func TestRewindAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	rewind := func(m int) float64 {
		srv, alt := rewindServer(t, goldenGraph{m: m})
		n := 0
		return testing.AllocsPerRun(50, func() {
			n++
			if _, err := srv.Submit(transport.Census{Edge: n % m, Round: 4, Counts: alt[n/m%2]}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := rewind(64), rewind(1024)
	if large != small || large > 4 {
		t.Errorf("a rewind allocates %.0f objects at 1024 regions, %.0f at 64; want equal and at most 4", large, small)
	}
}

// BenchmarkRewind times Submit of a differing census four rounds behind the
// head — a rewind replaying four rounds — on the load harness's ring at
// M=1024, where a late census reaches a few regions, and on a dense graph at
// M=16, where it reaches all of them and the rewind is a full re-fold.
func BenchmarkRewind(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    game.Graph
	}{{"cycle1024", goldenGraph{m: 1024}}, {"dense16", goldenGraph{m: 16, dense: true}}} {
		b.Run(bc.name, func(b *testing.B) {
			srv, alt := rewindServer(b, bc.g)
			m := bc.g.M()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := srv.Submit(transport.Census{Edge: n % m, Round: 4, Counts: alt[n/m%2]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
