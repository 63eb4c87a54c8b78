package cloud

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

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

// TestFoldAllocs pins the commit path's per-round heap cost at M=1024 on a
// ring: Hash at nothing, Apply at the satisfied slice of its FDS update.
func TestFoldAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const m = 1024
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
	if allocs := testing.AllocsPerRun(10, func() {
		if err := fold.Apply(censuses); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("Fold.Apply at M=%d: %.0f allocs, want at most 1", m, allocs)
	}
	fold.Hash() // sizes the encoding buffer
	if allocs := testing.AllocsPerRun(10, func() {
		fold.SetState(fold.State()) // drops the memo: every run encodes
		fold.Hash()
	}); allocs != 0 {
		t.Errorf("Fold.Hash at M=%d: %.0f allocs, want 0", m, allocs)
	}
}

// TestOpenReplaysReflectionEncodedJournal recovers a journal whose records
// json.Marshal wrote — the encoder before EncodeRound was appended by hand,
// so every journal already on disk — including a Corrected record that
// supersedes a buffered round. The recovered coordinator must stand where
// one fed the corrected history live stands, and at the state hash the
// commit that wrote such journals (9f1206c) recovers them to.
func TestOpenReplaysReflectionEncodedJournal(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	late := []int{3, 0, 0, 0, 0, 0, 2, 5}
	dir := t.TempDir()
	journal, _, err := durable.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []durable.RoundRecord{
		{Round: 0, Censuses: map[int][]int{0: c0, 1: c1}},
		{Round: 1, Degraded: true, Censuses: map[int][]int{0: c0}},
		{Round: 2, Censuses: map[int][]int{0: c0, 1: c1}},
		{Round: 1, Degraded: true, Corrected: true, Censuses: map[int][]int{0: c0, 1: late}},
		{Round: 3, Censuses: map[int][]int{0: c1, 1: c0}},
	} {
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

	srv := newLagServer(t, 8)
	defer srv.Close()
	if err := srv.Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := srv.Latest(); got != 3 {
		t.Errorf("recovered latest = %d, want 3", got)
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
		t.Errorf("recovered hash %08x, corrected history folds to %08x", got, ref.Hash())
	}
	const hashAt9f1206c = 0x868a8bec
	if got := srv.StateHash(); got != hashAt9f1206c {
		t.Errorf("recovered hash %08x, commit 9f1206c recovered this journal to %08x", got, uint32(hashAt9f1206c))
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
	srv.eng.register(session.Wrap(good), full.Censuses[:3])
	srv.eng.register(session.Wrap(bad), full.Censuses[3:])
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
		srv.eng.register(session.Wrap(conn), members)
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
