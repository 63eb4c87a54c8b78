package cloud

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/transport"
)

// crashServer is a 2-region server with the given lag window, checkpointing
// every four rounds.
func crashServer(t *testing.T, lag int) *Server {
	t.Helper()
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetFixedLag(lag)
	srv.journal = durable.NewJournal(nil, 4)
	return srv
}

// crashRound drives one round of the crash-matrix script. With a lag window
// every fifth round completes degraded and is then corrected by its late
// census — a rewind, journaled as a Corrected record; without one every
// round is full. Either way the fold ends where a lossless run's does.
func crashRound(t *testing.T, srv *Server, round int) {
	t.Helper()
	c0, c1 := testCounts(round%8, 7-round%8, 10)
	srv.mu.Lock()
	lag := srv.lag
	srv.mu.Unlock()
	if lag == 0 || round%5 != 0 {
		runFullRound(t, srv, round, c0, c1)
		return
	}
	srv.SetRoundDeadline(20 * time.Millisecond)
	if _, err := srv.Submit(transport.Census{Edge: 0, Round: round, Counts: c0}); err != nil {
		t.Fatal(err)
	}
	srv.SetRoundDeadline(0)
	if _, err := srv.Submit(transport.Census{Edge: 1, Round: round, Counts: c1}); err != nil {
		t.Fatal(err)
	}
}

// windowEntry is what a lag-window entry means, whatever storage holds it:
// its round, the bits of its snapshot (bitsOf: state and controller memory),
// its censuses and whether it completed degraded.
type windowEntry struct {
	Round    int
	Snapshot string
	Censuses map[int][]int
	Degraded bool
}

// windowOf returns what the server's lag window means, entry by entry.
func windowOf(srv *Server) []windowEntry {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]windowEntry, len(srv.window))
	for i, e := range srv.window {
		out[i] = windowEntry{e.round, bitsOf(e.preState, e.preFDS), make(map[int][]int), e.degraded}
		for edge, counts := range e.set.asMap() {
			out[i].Censuses[edge] = slices.Clone(counts)
		}
	}
	return out
}

// genSetting is what a generated cloud schedule runs under: its lag window,
// its checkpoint cadence, and whether its two regions report as two gossip
// neighborhoods' digests (of one member each) instead of as edges.
type genSetting struct {
	Lag, Every int
	Hoods      bool
}

// genStep is one step of a generated cloud schedule. A "round" completes
// Round with every region's Counts but Region's (-1: none, else degraded); a
// "late" census is Region's for Round, which completed earlier; a "fail"
// step fails the next step's journal fsyncs, poisoning the journal, and a
// "spare" step its creation of the next spare segment. With Hoods, "local"
// completes hood Region's local Round and "digest" escalates what the hood
// holds, which then drops the rounds the cloud acknowledged.
type genStep struct {
	Op     string
	Round  int
	Region int
	Counts [][]int
}

// genCloud draws a schedule under lag.
func genCloud(lag int, rng *rand.Rand) (genSetting, []genStep) {
	set := genSetting{Lag: lag, Every: 2 + rng.Intn(2), Hoods: rng.Intn(4) == 0}
	counts := func() []int {
		c := make([]int, 8)
		for v := 0; v < 10; v++ {
			c[rng.Intn(3)]++
		}
		return c
	}
	var steps []genStep
	if set.Hoods {
		var next [2]int
		for rounds := 2 + rng.Intn(4); next[0] < rounds || next[1] < rounds; {
			if h := rng.Intn(2); next[h] < rounds && rng.Intn(3) > 0 {
				steps = append(steps, genStep{Op: "local", Round: next[h], Region: h, Counts: [][]int{counts()}})
				next[h]++
			} else {
				if rng.Intn(6) == 0 {
					steps = append(steps, genStep{Op: "fail"})
				}
				steps = append(steps, genStep{Op: "digest", Region: h})
			}
		}
		return set, append(steps, genStep{Op: "digest"}, genStep{Op: "digest", Region: 1}, genStep{Op: "digest"}, genStep{Op: "digest", Region: 1})
	}
	for r := 0; r < 4+rng.Intn(5); r++ {
		miss := -1
		if rng.Intn(4) == 0 {
			miss = rng.Intn(2)
		}
		steps = append(steps, genStep{Op: "round", Round: r, Region: miss, Counts: [][]int{counts(), counts()}})
		switch rng.Intn(8) {
		case 0, 1:
			steps = append(steps, genStep{Op: "late", Round: max(0, r-rng.Intn(set.Lag+2)), Region: rng.Intn(2), Counts: [][]int{counts()}})
		case 2:
			steps = append(steps, genStep{Op: "fail"})
		case 3:
			steps = append(steps, genStep{Op: "spare"})
		}
	}
	return set, steps
}

// genApply runs one step on srv, the hoods' backlogs beside it. A full round
// is one batch through SubmitBatch; a degraded one completes at once, as its
// deadline would, without waiting one out.
func genApply(srv *Server, hoods *[2][]transport.DigestRound, st genStep) error {
	switch st.Op {
	case "round":
		var censuses []transport.Census
		for e, c := range st.Counts {
			if e != st.Region {
				censuses = append(censuses, transport.Census{Edge: e, Round: st.Round, Counts: c})
			}
		}
		if st.Region < 0 {
			_, err := srv.SubmitBatch(transport.CensusBatch{Round: st.Round, Censuses: censuses})
			return err
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		b, late, err := srv.eng.Place(st.Round, censuses, false)
		if err == nil && !late {
			srv.completeRoundLocked(st.Round, b, b.Size() < srv.m)
		} else if err == nil {
			err = fmt.Errorf("round %d is late", st.Round)
		}
		return err
	case "late":
		if st.Round > srv.Latest() {
			return nil // the round it is late for was shrunk away
		}
		_, err := srv.SubmitBatch(transport.CensusBatch{Round: st.Round, Censuses: []transport.Census{{Edge: st.Region, Round: st.Round, Counts: st.Counts[0]}}})
		return err
	case "local":
		hoods[st.Region] = append(hoods[st.Region], transport.DigestRound{Round: st.Round,
			Censuses: []transport.Census{{Edge: st.Region, Round: st.Round, Counts: st.Counts[0]}}})
	case "digest":
		held := hoods[st.Region]
		if len(held) == 0 {
			return nil
		}
		reply, err := srv.SubmitDigest(transport.Digest{Neighborhood: st.Region, Of: 2, Members: []int{st.Region}, Rounds: held})
		for err == nil && len(held) > 0 && held[0].Round < reply.Acked {
			held = held[1:]
		}
		hoods[st.Region] = held
		return err
	}
	return nil
}

// genOwner is a server a generated schedule runs on, with the two hoods'
// backlogs beside it; the journaled one keeps theirs before each step in
// seen.
type genOwner struct {
	*Server
	hoods [2][]transport.DigestRound
	seen  *[][2][]transport.DigestRound
}

func (o *genOwner) Step(st genStep) error {
	if o.seen != nil {
		*o.seen = append(*o.seen, o.hoods)
	}
	return genApply(o.Server, &o.hoods, st)
}

// State is what a recovery must reproduce: the round, the fold's hash and
// the lag window, entry by entry.
func (o *genOwner) State() string {
	return fmt.Sprintf("latest %d hash %08x window %+v", o.Latest(), o.StateHash(), windowOf(o.Server))
}

// Settle also collects the append of a round answered before its record was
// durable, as the next round's completion would, so that its fsync — and the
// crash points before it, the record's loss among them — fall in its own
// step.
func (o *genOwner) Settle() {
	o.mu.Lock()
	o.settleLocked()
	o.mu.Unlock()
	_ = o.journal.WaitCheckpoint()
}

func (o *genOwner) Drain() error {
	if o.seen != nil {
		*o.seen = append(*o.seen, o.hoods)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.settleLocked()
	return o.journal.Drain()
}

// cloudSchedule is how crashtest.Check runs a generated cloud schedule. With
// hoods, whose digest step may fold several rounds, a recovery is not
// matched to a twin state: it goes on from the step it crashed in, with the
// hoods' backlogs as the crash found them — holding every round the cloud
// did not acknowledge, or the run cannot end where the twin's did.
func cloudSchedule(t *testing.T, set genSetting, steps []genStep) crashtest.Schedule[genStep] {
	var seen [][2][]transport.DigestRound
	s := crashtest.Schedule[genStep]{
		Steps: steps,
		Open: func(dir string, hook func(op, path string) error) (crashtest.Owner[genStep], error) {
			o := &genOwner{Server: crashServer(t, set.Lag)}
			if dir == "" {
				return o, nil
			}
			if hook != nil {
				o.seen = &seen
			}
			o.journal = durable.NewJournal(hook, set.Every)
			return o, o.Open(dir)
		},
		Fail: func(st genStep) (string, bool) {
			return map[string]string{"fail": "sync journal", "spare": "create journal"}[st.Op], st.Op == "fail"
		},
	}
	if set.Hoods {
		s.Resume = func(r crashtest.Owner[genStep], k int, _ string, _ []string) int {
			o := r.(*genOwner)
			o.hoods = [2][]transport.DigestRound{slices.Clone(seen[k][0]), slices.Clone(seen[k][1])}
			for h := 0; k == len(steps) && h < 4; h++ { // a crash in the drain: the hoods send what they hold
				_ = genApply(o.Server, &o.hoods, genStep{Op: "digest", Region: h % 2})
			}
			return k
		}
	}
	return s
}

// TestCheckpointCrashPoints is the cloud's crash-point generator, 500
// schedules with and 500 without a lag window, each recovered from a copy
// taken before every one of its disk operations (see cloudSchedule). The
// fixed schedules are digest acks that covered a round the cloud held only
// in memory: hood 0's round 0 acknowledged while hood 1 has not reported it,
// and hood 1's folded by an append whose fsync failed. A crash before the
// round is durable must not lose it.
func TestCheckpointCrashPoints(t *testing.T) {
	c := []int{5, 3, 2, 0, 0, 0, 0, 0}
	failedAppend := func() (genSetting, []genStep) {
		return genSetting{Every: 2, Hoods: true}, []genStep{
			{Op: "local", Round: 0, Region: 0, Counts: [][]int{c}},
			{Op: "local", Round: 0, Region: 1, Counts: [][]int{c}},
			{Op: "digest", Region: 0},
			{Op: "fail"},
			{Op: "digest", Region: 1},
			{Op: "local", Round: 1, Region: 0, Counts: [][]int{c}},
			{Op: "local", Round: 1, Region: 1, Counts: [][]int{c}},
			{Op: "digest", Region: 1},
			{Op: "digest", Region: 0},
			// The hoods send what they hold once more, as every generated
			// schedule ends: the heal that round 1's failed append starts
			// may crash before hood 1's backlog is durable.
			{Op: "digest", Region: 1},
			{Op: "digest", Region: 0},
		}
	}
	ackedInMemory := func() (genSetting, []genStep) {
		return genSetting{Every: 2, Hoods: true}, []genStep{
			{Op: "local", Round: 0, Region: 0, Counts: [][]int{c}},
			{Op: "local", Round: 0, Region: 1, Counts: [][]int{c}},
			{Op: "local", Round: 1, Region: 0, Counts: [][]int{c}},
			{Op: "digest", Region: 0},
			{Op: "digest", Region: 1},
			{Op: "local", Round: 1, Region: 1, Counts: [][]int{c}},
			{Op: "digest", Region: 1},
			{Op: "digest", Region: 0},
		}
	}
	fixed := []func() (genSetting, []genStep){ackedInMemory, failedAppend}
	for _, lag := range []int{0, 2} {
		t.Run(fmt.Sprintf("lag=%d", lag), func(t *testing.T) {
			crashtest.Explore(t, 500, fixed, func(rng *rand.Rand) (genSetting, []genStep) {
				return genCloud(lag, rng)
			}, func(t *testing.T, set genSetting, steps []genStep) error {
				return crashtest.Check(t, cloudSchedule(t, set, steps))
			})
			fixed = nil
		})
	}
}

// TestCadenceRoundCommitPath is the cloud's commit-path pin, at each of its
// first three checkpoints: the cadence round, completed by the census its
// caller submits and answered before its record is durable, fsyncs the
// journal once, on the journal's appender, which touches the disk no
// further; the caller then collects the append, as the next round's
// completion would, which starts the checkpoint; its create, unlinks and
// directory fsync all run on the store's background goroutine, none on the
// round's caller.
func TestCadenceRoundCommitPath(t *testing.T) {
	srv := crashServer(t, 2)
	dir := t.TempDir()
	rec := crashtest.New(t, dir)
	srv.journal = durable.NewJournal(rec.Hook, 4)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	// Rewinds at rounds 5 and 10, checkpoints at 3, 7 and 11; the third
	// unlinks journal.wal, which the second's snapshot covers.
	for round := 0; round < 12; round++ {
		if round%4 != 3 {
			crashRound(t, srv, round)
			continue
		}
		c0, c1 := testCounts(round%8, 7-round%8, 10)
		first := make(chan error, 1)
		go func() {
			_, err := srv.Submit(transport.Census{Edge: 0, Round: round, Counts: c0})
			first <- err
		}()
		waitFor(t, func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			b, ok := srv.eng.Barrier(round)
			return ok && b.Size() == 1
		})
		rec.Reset()
		if _, err := srv.Submit(transport.Census{Edge: 1, Round: round, Counts: c1}); err != nil {
			t.Fatal(err)
		}
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		srv.settleLocked()
		srv.mu.Unlock()
		if err := srv.journal.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		rec.Committer(t)
	}
}

// TestCheckpointBoundsSegments: at fixed_lag 8 and the default cadence, 200
// rounds leave at most two closed segments, the active one and the spare.
func TestCheckpointBoundsSegments(t *testing.T) {
	srv := crashServer(t, 8)
	srv.journal = durable.NewJournal(nil, durable.CompactEvery)
	dir := t.TempDir()
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := testCounts(0, 7, 10)
	for round := 0; round < 200; round++ {
		runFullRound(t, srv, round, c0, c1)
		if names, _ := filepath.Glob(filepath.Join(dir, "journal*.wal")); len(names) > 4 {
			t.Fatalf("round %d: %d segment files %q, want at most two closed, the active one and the spare", round, len(names), names)
		}
	}
	if err := srv.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, srv.Registry(), "durable_journal_segments"); n < 1 || n > 3 {
		t.Errorf("durable_journal_segments = %v, want 1 to 3", n)
	}
}
