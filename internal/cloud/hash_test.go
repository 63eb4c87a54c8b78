package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// eagerHash is what the gauge held when every commit set it: the CRC-32C of
// json.Marshal of the state, computed from scratch.
func eagerHash(t *testing.T, st *game.State) uint32 {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return crc32.Checksum(b, castagnoli)
}

// goldenBatch turns a golden census set into the full batch a Server's
// barrier needs: a region the set leaves out reports an empty census, which
// the fold treats exactly as a missing one (last-known shares).
func goldenBatch(round, m, k int, censuses map[int][]int) transport.CensusBatch {
	batch := transport.CensusBatch{Round: round, Censuses: make([]transport.Census, m)}
	for i := range batch.Censuses {
		counts := censuses[i]
		if counts == nil {
			counts = make([]int, k)
		}
		batch.Censuses[i] = transport.Census{Edge: i, Round: round, Counts: counts}
	}
	return batch
}

// TestStateHashGaugeLazyEqualsEager drives a durable Server with a lag window
// over the golden file's dense16/p1band inputs and, after every step that
// changes the state — each of the 300 rounds, a rewind, a bare SetState, an
// Open that replays a Corrected record, a digest fold — reads
// consensus_state_hash through the registry snapshot and requires the value
// an eager Set would have stored. A mutation that forgot to drop the memo
// shows as the previous step's hash.
func TestStateHashGaugeLazyEqualsEager(t *testing.T) {
	cfg := goldenConfigs[2]
	run := cfg.run(t)
	m, k := cfg.graph.m, run.model.K()
	dir := t.TempDir()
	srv, err := NewServer(run.fds, run.initial)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFixedLag(4)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	check := func(s *Server, step string) {
		t.Helper()
		got := uint32(metricValue(t, s.Registry(), "consensus_state_hash"))
		if want := eagerHash(t, s.State()); got != want {
			t.Fatalf("%s: consensus_state_hash = %08x, eager hash of the state = %08x", step, got, want)
		}
	}
	check(srv, "before the first round")

	for round := 0; round < 300; round++ {
		if _, err := srv.SubmitBatch(goldenBatch(round, m, k, run.next(srv.State().X))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		check(srv, fmt.Sprintf("round %d", round))
	}
	// The server folded the golden's census stream, so it holds the golden's
	// final hash.
	want, err := os.ReadFile(filepath.Join("testdata", "fold_300rounds.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := regexp.Match(fmt.Sprintf(`(?m)^%s chain .* hash %08x$`, cfg.name, srv.StateHash()), want); !ok {
		t.Fatalf("server over the golden inputs ended at hash %08x, not the golden file's %s hash", srv.StateHash(), cfg.name)
	}

	// A late, differing census two rounds back: rewind and re-fold.
	late := transport.Census{Edge: 3, Round: 298, Counts: make([]int, k)}
	late.Counts[k-1] = 100
	if _, err := srv.Submit(late); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, srv.Registry(), "consensus_rewinds_total"); n != 1 {
		t.Fatalf("consensus_rewinds_total = %v, want 1", n)
	}
	check(srv, "after the rewind")
	corrected := srv.StateHash()

	// Crash and recover: Open replays the journal, Corrected record included.
	srv.Close()
	run2 := cfg.run(t)
	srv2, err := NewServer(run2.fds, run2.initial)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.SetFixedLag(4)
	o := obs.New()
	srv2.Instrument(o)
	check(srv2, "instrumented, before Open")
	if err := srv2.Open(dir); err != nil {
		t.Fatal(err)
	}
	check(srv2, "after Open")
	if got := srv2.StateHash(); got != corrected {
		t.Fatalf("recovered hash %08x, want the corrected %08x", got, corrected)
	}

	// A digest from the one neighborhood folds round 300.
	next := goldenBatch(300, m, k, run.next(srv2.State().X))
	members := make([]int, m)
	for i := range members {
		members[i] = i
	}
	if _, err := srv2.SubmitDigest(transport.Digest{Neighborhood: 0, Of: 1, Members: members,
		Rounds: []transport.DigestRound{{Round: 300, Censuses: next.Censuses}}}); err != nil {
		t.Fatal(err)
	}
	if srv2.StateHash() == corrected {
		t.Fatal("the digest round did not change the state")
	}
	check(srv2, "after the digest fold")

	// A bare SetState, as rewind and recovery install their snapshots.
	srv2.mu.Lock()
	srv2.fold.SetState(run2.initial.Clone())
	srv2.mu.Unlock()
	check(srv2, "after SetState")
}

// TestHashMemoisedWhenIdle: two reads of an unchanged state cost one
// encoding. The state is changed behind the fold's back between the reads;
// a second encoding would see it, the memo does not, and SetState drops the
// memo.
func TestHashMemoisedWhenIdle(t *testing.T) {
	fds, _ := testFDS(t)
	fold, err := NewFold(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	first := fold.Hash()
	if first != eagerHash(t, fold.State()) {
		t.Fatalf("hash %08x is not the CRC of the state's JSON", first)
	}
	fold.State().X[0] = 0.25
	if got := fold.Hash(); got != first {
		t.Fatalf("second read of an idle fold re-encoded the state: %08x, memo %08x", got, first)
	}
	fold.SetState(fold.State())
	if got, want := fold.Hash(), eagerHash(t, fold.State()); got != want || got == first {
		t.Fatalf("after SetState: hash %08x, want %08x (and not the memo %08x)", got, want, first)
	}
	if !israce.Enabled {
		if allocs := testing.AllocsPerRun(100, func() { fold.Hash() }); allocs != 0 {
			t.Errorf("reading a memoised hash: %.1f allocs, want 0", allocs)
		}
	}
}

var hashLine = regexp.MustCompile(`(?m)^consensus_state_hash (\S+)$`)

// TestStateHashScrapedDuringRounds runs 200 rounds on an in-process tier —
// the server instrumented onto a shared registry before Serve, two edges
// reporting over sessions — while a scraper loops over the registry snapshot
// and the /metrics exposition. Run under -race: the collect-time gauge takes
// the server's lock from the scraper's goroutine. Every value scraped must be
// the true hash of the state after some round, and the test must finish (a
// lock-order inversion between registry and server would hang it).
func TestStateHashScrapedDuringRounds(t *testing.T) {
	const rounds = 200
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	srv.Instrument(o)
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// The truth: a reference fold over the same censuses.
	censusOf := func(edge, round int) []int {
		c := make([]int, 8)
		c[(edge+round)%8] = 10 + round%7
		c[7-edge] += 5
		return c
	}
	refFDS, _ := testFDS(t)
	ref, err := NewFold(refFDS, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint32]bool{ref.Hash(): true}
	for round := 0; round < rounds; round++ {
		if err := ref.Apply(map[int][]int{0: censusOf(0, round), 1: censusOf(1, round)}); err != nil {
			t.Fatal(err)
		}
		truth[ref.Hash()] = true
	}

	// The edges hold their first census until the scraper has read the gauge
	// once: 200 two-region rounds can otherwise finish before the scraper's
	// goroutine is first scheduled, and nothing would have raced.
	stop, first := make(chan struct{}), make(chan struct{})
	var scraped []uint32
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		mux := obs.NewMux(o)
		for pass := 0; ; pass++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range o.Registry().Snapshot() {
				if p.Name == "consensus_state_hash" {
					scraped = append(scraped, uint32(p.Value))
				}
			}
			if pass == 0 {
				close(first)
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			match := hashLine.FindSubmatch(rec.Body.Bytes())
			if match == nil {
				t.Errorf("/metrics has no consensus_state_hash line:\n%s", bytes.TrimSpace(rec.Body.Bytes()))
				return
			}
			v, err := strconv.ParseFloat(string(match[1]), 64)
			if err != nil {
				t.Errorf("/metrics consensus_state_hash %q: %v", match[1], err)
				return
			}
			scraped = append(scraped, uint32(v))
		}
	}()

	var edges sync.WaitGroup
	for edge := 0; edge < 2; edge++ {
		edge := edge
		conn, err := net.Dial("cloud")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		edges.Add(1)
		go func() {
			defer edges.Done()
			<-first
			for round := 0; round < rounds; round++ {
				if _, err := session.ReportCensusWith(conn, &transport.Census{Edge: edge, Round: round, Counts: censusOf(edge, round)}, 10*time.Second, nil); err != nil {
					t.Errorf("edge %d round %d: %v", edge, round, err)
					return
				}
			}
		}()
	}
	edges.Wait()
	close(stop)
	scraper.Wait()

	if len(scraped) == 0 {
		t.Fatal("the scraper never read the gauge")
	}
	for _, h := range scraped {
		if !truth[h] {
			t.Fatalf("scraped consensus_state_hash %08x is no round's hash", h)
		}
	}
	if got := uint32(metricValue(t, o.Registry(), "consensus_state_hash")); got != ref.Hash() {
		t.Fatalf("after round %d the gauge reads %08x, the reference fold %08x", rounds-1, got, ref.Hash())
	}
}
