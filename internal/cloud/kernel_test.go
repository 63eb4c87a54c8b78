package cloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// TestFoldHashIsJSONChecksum holds Fold.Hash to its definition — the
// CRC-32C of json.Marshal(state) — on random states whose values take every
// float path of encoding/json: 0, exact 1, plain decimals, below 1e-6 and
// from 1e21 (exponent form). SetState does not validate, so the values need
// not be ratios.
func TestFoldHashIsJSONChecksum(t *testing.T) {
	fds, _ := testFDS(t)
	fold, err := NewFold(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	special := []float64{0, 1, 1e-6, 9.9e-7, 1e-7, 4.2e-13, 5e-324, 1e20, 1e21, 7.5e21, 3e150, 0.1, 2.0 / 3, -1e-9}
	for n := 0; n < 200; n++ {
		st := game.NewUniformState(1+rng.Intn(6), 1+rng.Intn(8), 0)
		for i := range st.P {
			for k := range st.P[i] {
				st.P[i][k] = rng.Float64()
				if rng.Intn(3) == 0 {
					st.P[i][k] = special[rng.Intn(len(special))]
				}
			}
			st.X[i] = special[rng.Intn(len(special))]
		}
		fold.SetState(st)
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fold.Hash(), crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)); got != want {
			t.Fatalf("Hash() = %08x, CRC-32C of json.Marshal = %08x for %s", got, want, b)
		}
	}
	st := game.NewUniformState(2, 8, 0.5)
	st.X[1] = math.NaN()
	fold.SetState(st)
	if got := fold.Hash(); got != 0 {
		t.Errorf("Hash() of a state JSON cannot carry = %08x, want 0", got)
	}
}

// censusRing returns a ring fold of m regions and one census of 100 vehicles
// per region.
func censusRing(t *testing.T, m int) (*Fold, map[int][]int) {
	beta := make([]float64, m)
	for i := range beta {
		beta[i] = 3
	}
	model, err := game.NewModel(lattice.PaperPayoffs(), goldenGraph{m: m}, beta)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := policy.NewFDS(model, goldenField(t, m, false), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := NewFold(fds, game.NewUniformState(m, model.K(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	censuses := make(map[int][]int, m)
	for i := 0; i < m; i++ {
		counts := make([]int, model.K())
		for v := 0; v < 100; v++ {
			counts[rng.Intn(len(counts))]++
		}
		censuses[i] = counts
	}
	return fold, censuses
}

// TestFoldAllocs pins the commit path's per-round heap cost at M=16 and
// M=1024 on a ring at nothing, for ApplySet and for Hash once the first Hash
// has allocated the value memo.
func TestFoldAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	for _, m := range []int{16, 1024} {
		fold, censuses := censusRing(t, m)
		set := setOf(m, censuses)
		if allocs := testing.AllocsPerRun(10, func() {
			if err := fold.ApplySet(set); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Fold.ApplySet at M=%d: %.0f allocs, want 0", m, allocs)
		}
		fold.Hash() // sizes the encoding buffer and allocates the value memo
		if allocs := testing.AllocsPerRun(10, func() {
			fold.SetState(fold.State()) // drops the hash memo: every run encodes
			fold.Hash()
		}); allocs != 0 {
			t.Errorf("Fold.Hash at M=%d: %.0f allocs, want 0", m, allocs)
		}
	}
}

// BenchmarkFoldHash times one state hash at M=1024, K=9 after a change of
// state: "repeating" holds census shares c/100 and four ratios, so after the
// first read every value's text is memoised; "distinct" rewrites every value
// with one never seen before ahead of each read (about 10 µs of the
// iteration), so every value misses. Hash reads only the state, so the fold
// needs no controller.
func BenchmarkFoldHash(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	st := game.NewUniformState(1024, 9, 0)
	for i, p := range st.P {
		counts := make([]int, len(p))
		for v := 0; v < 100; v++ {
			counts[rng.Intn(len(counts))]++
		}
		shares(counts, p)
		st.X[i] = []float64{0.2, 0.35, 0.5, 0.85}[i%4]
	}
	fold, fresh := &Fold{state: st}, 0.1
	for _, bc := range []struct {
		name    string
		prepare func() // readies the state for the next read
	}{
		{"repeating", func() {}},
		{"distinct", func() {
			for _, p := range st.P {
				for k := range p {
					p[k], fresh = fresh, fresh+1e-12
				}
			}
			for i := range st.X {
				st.X[i], fresh = fresh, fresh+1e-12
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.prepare()
			fold.SetState(st)
			fold.Hash() // allocates the memo and sizes the encoding buffer
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bc.prepare()
				fold.SetState(st)
				fold.Hash()
			}
		})
	}
}

// reflectionJournal writes records into a fresh state directory the way
// json.Marshal encoded them — the encoder before EncodeRound was appended by
// hand, so every journal already on disk.
func reflectionJournal(t *testing.T, recs []durable.RoundRecord) (dir string) {
	t.Helper()
	dir = t.TempDir()
	journal, _, err := durable.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenReplaysReflectionEncodedJournal recovers a journal whose records
// json.Marshal wrote, including a Corrected record in the form of its day —
// the buffered round's whole corrected census set. The recovered coordinator
// must stand where one fed the corrected history live stands, and at the
// state hash the commit that wrote such journals (9f1206c) recovers them to.
// So must one whose journal also repeats a round's set in a second
// whole-round Corrected record that changes nothing, and one whose journal
// says the same correction the way a rewind journals it now: the late census
// alone.
func TestOpenReplaysReflectionEncodedJournal(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	late := []int{3, 0, 0, 0, 0, 0, 2, 5}
	round := func(n int, a, b []int) durable.RoundRecord {
		return durable.RoundRecord{Round: n, Censuses: map[int][]int{0: a, 1: b}}
	}
	degraded := durable.RoundRecord{Round: 1, Degraded: true, Censuses: map[int][]int{0: c0}}
	whole := durable.RoundRecord{Round: 1, Degraded: true, Corrected: true, Censuses: map[int][]int{0: c0, 1: late}}
	again := durable.RoundRecord{Round: 2, Corrected: true, Censuses: map[int][]int{0: c0, 1: c1}}
	delta := durable.RoundRecord{Round: 1, Corrected: true, Censuses: map[int][]int{1: late}}
	for name, recs := range map[string][]durable.RoundRecord{
		"whole-round record": {round(0, c0, c1), degraded, round(2, c0, c1), whole, round(3, c1, c0)},
		"and a second one":   {round(0, c0, c1), degraded, round(2, c0, c1), whole, again, round(3, c1, c0)},
		"delta record":       {round(0, c0, c1), degraded, round(2, c0, c1), delta, round(3, c1, c0)},
	} {
		srv := newLagServer(t, 8)
		defer srv.Close()
		if err := srv.Open(reflectionJournal(t, recs)); err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if got := srv.Latest(); got != 3 {
			t.Errorf("%s: recovered latest = %d, want 3", name, got)
		}
		fds, _ := testFDS(t)
		ref, err := NewFold(fds, game.NewUniformState(2, 8, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		for _, censuses := range []map[int][]int{{0: c0, 1: c1}, {0: c0, 1: late}, {0: c0, 1: c1}, {0: c1, 1: c0}} {
			if err := ref.Apply(censuses); err != nil {
				t.Fatal(err)
			}
		}
		if got := srv.StateHash(); got != ref.Hash() {
			t.Errorf("%s: recovered hash %08x, corrected history folds to %08x", name, got, ref.Hash())
		}
		const hashAt9f1206c = 0x868a8bec
		if got := srv.StateHash(); got != hashAt9f1206c {
			t.Errorf("%s: recovered hash %08x, commit 9f1206c recovered the whole-round journal to %08x", name, got, uint32(hashAt9f1206c))
		}
		if n := metricValue(t, srv.Registry(), "journal_corrected_orphans_total"); n != 0 {
			t.Errorf("%s: journal_corrected_orphans_total = %v, want 0", name, n)
		}
	}
}

// TestOpenCountsOrphanedCorrections: a Corrected record is a late census, not
// a round, and recovery can only merge it into a round it has buffered. One
// that finds none — its round was never journaled, or fixed_lag shrank across
// the restart and the round has left the window — is skipped, counted, and
// named in the log; one for a round the checkpoint already covers is the
// debris of a crash between snapshot and unlink, and passes in silence.
func TestOpenCountsOrphanedCorrections(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	late := []int{3, 0, 0, 0, 0, 0, 2, 5}
	full := func(n int) durable.RoundRecord {
		return durable.RoundRecord{Round: n, Censuses: map[int][]int{0: c0, 1: c1}}
	}
	correction := func(n int) durable.RoundRecord {
		return durable.RoundRecord{Round: n, Corrected: true, Censuses: map[int][]int{1: late}}
	}
	plain := newLagServer(t, 8)
	defer plain.Close()
	if err := plain.Open(reflectionJournal(t, []durable.RoundRecord{full(0), full(1), full(2)})); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		lag     int
		recs    []durable.RoundRecord
		orphans float64
		logged  string
	}{
		{"round never journaled", 8, []durable.RoundRecord{full(0), full(1), full(2), correction(5)}, 1, "round 5"},
		{"window shrank past the round", 1, []durable.RoundRecord{full(0), full(1), full(2), correction(0)}, 1, "round 0"},
		{"window still holds the round", 3, []durable.RoundRecord{full(0), full(1), full(2), correction(0)}, 0, ""},
	} {
		srv := newLagServer(t, tc.lag)
		defer srv.Close()
		var logged []string
		srv.SetLogf(func(format string, args ...interface{}) { logged = append(logged, fmt.Sprintf(format, args...)) })
		if err := srv.Open(reflectionJournal(t, tc.recs)); err != nil {
			t.Fatalf("%s: Open: %v", tc.name, err)
		}
		if n := metricValue(t, srv.Registry(), "journal_corrected_orphans_total"); n != tc.orphans {
			t.Errorf("%s: journal_corrected_orphans_total = %v, want %v", tc.name, n, tc.orphans)
		}
		named := slices.ContainsFunc(logged, func(line string) bool {
			return strings.Contains(line, "corrected record") && strings.Contains(line, tc.logged)
		})
		if tc.orphans > 0 && !named {
			t.Errorf("%s: no log line names the orphaned %s: %q", tc.name, tc.logged, logged)
		}
		if skipped := srv.StateHash() == plain.StateHash(); skipped != (tc.orphans > 0) {
			t.Errorf("%s: recovered hash %08x, uncorrected history %08x", tc.name, srv.StateHash(), plain.StateHash())
		}
		if got := srv.Latest(); got != 2 {
			t.Errorf("%s: recovered latest = %d, want 2 (a correction is no round)", tc.name, got)
		}
	}

	// Under a checkpoint: round 1's correction is debris the snapshot covers.
	dir := reflectionJournal(t, []durable.RoundRecord{full(1), correction(1), full(2)})
	snap, err := durable.AppendCheckpoint(nil, durable.Checkpoint{Round: 1, State: game.NewUniformState(2, 8, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	crashtest.WriteLegacySnapshot(t, dir, snap)
	srv := newLagServer(t, 8)
	defer srv.Close()
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, srv.Registry(), "journal_corrected_orphans_total"); n != 0 || srv.Latest() != 2 {
		t.Errorf("a correction under the checkpoint: journal_corrected_orphans_total = %v, latest %d; want 0 and 2", n, srv.Latest())
	}
}

// countingConn records the frames sent on it and fails every send from the
// failAt-th on.
type countingConn struct {
	mu     sync.Mutex
	sent   []transport.Message
	calls  int
	failAt int // 0 = never
	done   chan struct{}
	want   int
}

func (c *countingConn) Send(m transport.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.failAt > 0 && c.calls >= c.failAt {
		if c.calls == c.failAt {
			close(c.done)
		}
		return errors.New("peer hung up")
	}
	c.sent = append(c.sent, m)
	if len(c.sent) == c.want {
		close(c.done)
	}
	return nil
}
func (c *countingConn) Recv() (transport.Message, error) { select {} }
func (c *countingConn) Close() error                     { return nil }

// TestCorrectionsLeaveOnOneSenderPerSession registers three regions on one
// session and three on another, rewinds, and requires the healthy session to
// be sent exactly one frame, carrying every region of its own but the
// submitter — and a session whose send fails to be tried once and given up
// on, while the counter still counts the five regions placed.
func TestCorrectionsLeaveOnOneSenderPerSession(t *testing.T) {
	const m = 6
	beta := []float64{3, 3, 3, 3, 3, 3}
	model, err := game.NewModel(lattice.PaperPayoffs(), goldenGraph{m: m}, beta)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := policy.NewFDS(model, goldenField(t, m, false), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(fds, game.NewUniformState(m, model.K(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetFixedLag(4)

	good := &countingConn{done: make(chan struct{}), want: 1}
	bad := &countingConn{done: make(chan struct{}), failAt: 1}
	census := func(edge int, counts []int) transport.Census {
		return transport.Census{Edge: edge, Round: 0, Counts: counts}
	}
	full := transport.CensusBatch{Round: 0}
	for edge := 0; edge < m; edge++ {
		full.Censuses = append(full.Censuses, census(edge, []int{10, 0, 0, 0, 0, 0, 0, 5}))
	}
	srv.eng.register(&reporter{Session: session.Wrap(good)}, full.Censuses[:3])
	srv.eng.register(&reporter{Session: session.Wrap(bad)}, full.Censuses[3:])
	if _, err := srv.SubmitBatch(full); err != nil {
		t.Fatal(err)
	}
	// Region 0 reports a differing census for the completed round: a rewind.
	if _, err := srv.Submit(census(0, []int{0, 0, 0, 0, 0, 0, 0, 15})); err != nil {
		t.Fatal(err)
	}
	<-good.done
	<-bad.done
	good.mu.Lock()
	if good.calls != 1 {
		t.Errorf("healthy session saw %d sends, want one frame for the rewind", good.calls)
	}
	var rc transport.RatioCorrection
	if err := transport.Decode(good.sent[0], transport.KindRatioCorrection, &rc); err != nil {
		t.Fatal(err)
	}
	good.mu.Unlock()
	want := transport.RatioCorrection{Round: 0, Seq: 1, Edges: []int{1, 2}, X: []float64{srv.fold.X(1), srv.fold.X(2)}}
	if !reflect.DeepEqual(rc, want) {
		t.Errorf("healthy session was sent %+v, want %+v", rc, want)
	}
	if n := metricValue(t, srv.Registry(), "consensus_ratio_corrections_total"); n != 5 {
		t.Errorf("consensus_ratio_corrections_total = %v, want 5", n)
	}
	bad.mu.Lock()
	defer bad.mu.Unlock()
	if bad.calls != 1 {
		t.Errorf("failing session saw %d sends, want it tried once", bad.calls)
	}
}

// signalConn reports each frame sent on it and keeps nothing.
type signalConn struct{ sent chan struct{} }

func (c signalConn) Send(transport.Message) error     { c.sent <- struct{}{}; return nil }
func (c signalConn) Recv() (transport.Message, error) { select {} }
func (c signalConn) Close() error                     { return nil }

// TestCorrectionFanOutAllocs pins a rewind's fan-out to one session at a
// handful of heap objects whatever the session's size: the frame, its two
// slices and the send, with nothing allocated per region. 64 regions and 512
// cost the same.
func TestCorrectionFanOutAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	fanOut := func(m int) float64 {
		beta := make([]float64, m)
		for i := range beta {
			beta[i] = 3
		}
		model, err := game.NewModel(lattice.PaperPayoffs(), goldenGraph{m: m}, beta)
		if err != nil {
			t.Fatal(err)
		}
		fds, err := policy.NewFDS(model, goldenField(t, m, false), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(fds, game.NewUniformState(m, model.K(), 0.2))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		members := make([]transport.Census, m)
		for edge := range members {
			members[edge].Edge = edge
		}
		conn := signalConn{sent: make(chan struct{})}
		srv.eng.register(&reporter{Session: session.Wrap(conn)}, members)
		return testing.AllocsPerRun(20, func() {
			srv.mu.Lock()
			srv.correctionSeq++
			srv.pushCorrectionsLocked(members[:1])
			srv.mu.Unlock()
			<-conn.sent
		})
	}
	small, large := fanOut(64), fanOut(512)
	if large != small || large > 6 {
		t.Errorf("fan-out to one session: %.0f allocs at 512 regions, %.0f at 64; want equal and at most 6", large, small)
	}
}

// TestCensusExchangeAllocs pins a warmed step-① / step-② exchange of a
// one-region cloud over TCP at zero: the session decodes the census into its
// own scratch and answers from its own ratio body, the round's barrier, its
// span and its census set are reused, and the edge's side
// (session.ReportCensusWith) allocates nothing either.
func TestCensusExchangeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	fds, model := refoldFDS(t, goldenGraph{m: 1}, false, 8)
	srv, err := NewServer(fds, game.NewUniformState(1, model.K(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	conn := serveVia(t, "tcp", srv.Serve)()
	census := &transport.Census{Counts: make([]int, model.K())}
	census.Counts[1] = 10
	exchange := func() {
		if _, err := session.ReportCensusWith(conn, census, 30*time.Second, nil); err != nil {
			t.Fatal(err)
		}
		census.Round++
	}
	for census.Round < 300 { // past the tracer's ring, so every span slot is warm
		exchange()
	}
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
		t.Errorf("a census exchange with a one-region cloud: %.1f allocs, want 0", allocs)
	}
	if got := srv.Latest(); got != census.Round-1 {
		t.Errorf("cloud completed up to round %d, want %d", got, census.Round-1)
	}
}
