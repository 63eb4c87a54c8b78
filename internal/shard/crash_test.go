package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/transport"
)

// censusMap is a census list as a map of copied counts: how the tests compare
// what a shard kept.
func censusMap(list []transport.Census) map[int][]int {
	m := make(map[int][]int, len(list))
	for _, c := range list {
		m[c.Edge] = slices.Clone(c.Counts)
	}
	return m
}

// crashCounts is a deterministic census pair for a round.
func crashCounts(round int) map[int][]int {
	c0, c1 := make([]int, 8), make([]int, 8)
	c0[round%8], c1[7-round%8] = 10, 10
	return map[int][]int{0: c0, 1: c1}
}

// shardStep is one step of a generated shard schedule: "round" journals the
// forward of Round with both regions' Counts but Region's (-1: none), "pair"
// starts the appends of Round and Round+1 — a deadline completing the
// successor while the first forward is out — before either is waited for;
// "spare" fails the next step's creation of the next spare segment.
type shardStep struct {
	Op     string
	Round  int
	Region int
	Counts [][]int
}

func genShard(rng *rand.Rand) (int, []shardStep) {
	every := 2 + rng.Intn(2)
	counts := func() []int {
		c := make([]int, 8)
		c[rng.Intn(8)] = 1 + rng.Intn(9)
		return c
	}
	var steps []shardStep
	for r := 0; r < 6+rng.Intn(6); r++ {
		miss, op := -1, "round"
		if rng.Intn(4) == 0 {
			miss = rng.Intn(2)
		}
		if rng.Intn(4) == 0 {
			op = "pair"
		}
		steps = append(steps, shardStep{Op: op, Round: r, Region: miss, Counts: [][]int{counts(), counts(), counts(), counts()}})
		if op == "pair" {
			r++
		}
		if rng.Intn(8) == 0 {
			steps = append(steps, shardStep{Op: "spare"})
		}
	}
	return every, steps
}

// records is what a step journals, oldest first.
func (st shardStep) records() []durable.RoundRecord {
	var out []durable.RoundRecord
	for i := 0; i < map[string]int{"round": 1, "pair": 2}[st.Op]; i++ {
		rec := durable.RoundRecord{Round: st.Round + i, Degraded: st.Region >= 0}
		for e := 0; e < 2; e++ {
			if e != st.Region {
				rec.Sorted = append(rec.Sorted, transport.Census{Edge: e, Round: rec.Round, Counts: st.Counts[2*i+e]})
			}
		}
		out = append(out, rec)
	}
	return out
}

// shardApply journals a step's forwards as the coordinator's commit does:
// started under c.mu, waited for outside it, the newest kept for re-forward
// — by a shard without a state directory too, the lossless twin.
func shardApply(c *Coordinator, st shardStep) {
	recs := st.records()
	tickets := make([]int, len(recs))
	c.mu.Lock()
	for i, rec := range recs {
		tickets[i] = c.journal.StartRound(rec)
	}
	c.mu.Unlock()
	for i, rec := range recs {
		var n int
		var err error
		if tickets[i] >= 0 {
			n, err = c.journal.WaitRound(tickets[i])
		}
		c.mu.Lock()
		if err == nil {
			c.keepLocked(rec)
		}
		c.eng.Advance(rec.Round)
		c.journal.Journaled(rec, n, err)
		c.mu.Unlock()
	}
}

// shardOwner is a coordinator a generated schedule runs on.
type shardOwner struct{ *Coordinator }

func (o shardOwner) Step(st shardStep) error {
	shardApply(o.Coordinator, st)
	return nil
}

// State is what a recovery must reproduce of a shard: its watermark and the
// batch it re-forwards.
func (o shardOwner) State() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return shardState(o.eng.Latest(), o.lastRec)
}

func shardState(latest int, newest durable.RoundRecord) string {
	return fmt.Sprintf("latest %d newest %d:%v:%+v", latest, newest.Round, newest.Degraded, newest.Sorted)
}

func (o shardOwner) Settle() { _ = o.journal.WaitCheckpoint() }

func (o shardOwner) Drain() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.journal.Drain()
}

// shardSchedule is how crashtest.Check runs a generated shard schedule. A
// crash may also fall between a pair's two rounds, which then runs again.
func shardSchedule(t *testing.T, every int, steps []shardStep) crashtest.Schedule[shardStep] {
	return crashtest.Schedule[shardStep]{
		Steps: steps,
		Open: func(dir string, hook func(op, path string) error) (crashtest.Owner[shardStep], error) {
			c, err := NewCoordinator(Config{Regions: []int{0, 1}, K: 8, Upstream: &edge.BatchLink{Dialer: &transport.Dialer{
				Dial:  func() (transport.Conn, error) { return nil, fmt.Errorf("no aggregator") },
				Sleep: func(time.Duration) {}}}})
			if err == nil && dir != "" {
				c.journal = durable.NewJournal(hook, every)
				err = c.Open(dir)
			}
			return shardOwner{c}, err
		},
		Fail: func(st shardStep) (string, bool) { return map[string]string{"spare": "create journal"}[st.Op], false },
		Resume: func(_ crashtest.Owner[shardStep], k int, got string, want []string) int {
			switch {
			case got == want[k+1]:
				return k + 1
			case got == want[k], k < len(steps) && steps[k].Op == "pair" && got == shardState(steps[k].Round, steps[k].records()[0]):
				return k
			}
			return -1
		},
	}
}

// TestCheckpointCrashPoints is the shard's crash-point generator (see
// shardSchedule): forwards journaled one or two in flight at a time,
// failed fsyncs and spares, each schedule recovered from a copy taken before
// every disk operation.
func TestCheckpointCrashPoints(t *testing.T) {
	crashtest.Explore(t, 1000, nil, genShard, func(t *testing.T, every int, steps []shardStep) error {
		return crashtest.Check(t, shardSchedule(t, every, steps))
	})
}

// callerRound runs round with region 1's census, the one that completes it,
// submitted on the calling goroutine, which it names the round's caller
// (crashtest.Recorder.Reset), and waits out the checkpoint it may start.
func callerRound(t *testing.T, c *Coordinator, rec *crashtest.Recorder, round int) {
	t.Helper()
	counts := crashCounts(round)
	first := make(chan error, 1)
	go func() {
		_, err := submit(c, transport.Census{Edge: 0, Round: round, Counts: counts[0]})
		first <- err
	}()
	waitFor(t, "region 0's census on the barrier", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		b, ok := c.eng.Barrier(round)
		return ok && b.Size() == 1
	})
	rec.Reset()
	if _, err := submit(c, transport.Census{Edge: 1, Round: round, Counts: counts[1]}); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := c.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredShardReforwards drives a shard's rounds through its commit
// path to an aggregator, checkpointing every fourth. Each cadence round is
// the commit-path pin: completed by the census its caller submits, its
// append fsyncs the journal once, on the journal's appender, which touches
// the disk no further, and its checkpoint's disk work runs on the store's
// background goroutine, none on the round's caller. Open on a copy taken
// before each of the third's disk operations must recover the watermark and
// the newest batch and re-forward that batch upstream, where the aggregator
// absorbs it as a duplicate and keeps its hash.
func TestRecoveredShardReforwards(t *testing.T) {
	net := transport.NewInprocNetwork()
	agg := newAggregator(t)
	defer agg.Close()
	agg.SetFixedLag(8)
	startAggregator(t, net, "agg", agg)

	c := newTestCoordinator(t, net, "agg", 0)
	dir := t.TempDir()
	rec := crashtest.New(t, dir)
	c.journal = durable.NewJournal(rec.Hook, 4)
	if err := c.Open(dir); err != nil {
		t.Fatal(err)
	}
	const last = 11 // the third cadence round: it unlinks journal.wal, which the second's snapshot covers
	for round := 0; round < last; round++ {
		if round%4 != 3 {
			runRound(t, c, round, crashCounts(round))
			continue
		}
		callerRound(t, c, rec, round)
		rec.Committer(t)
	}
	rec.Arm()
	callerRound(t, c, rec, last)
	crashes := rec.Crashes()
	rec.Committer(t)

	hash := agg.StateHash()
	for _, cr := range crashes {
		c2 := newTestCoordinator(t, net, "agg", 0)
		dups := metricValue(t, agg.Registry(), "consensus_duplicate_censuses_total")
		if err := c2.Open(cr.Dir); err != nil {
			t.Errorf("%s: Open: %v", cr.Step, err)
			continue
		}
		c2.mu.Lock()
		latest, newest := c2.eng.Latest(), c2.lastRec
		c2.mu.Unlock()
		if latest != last || newest.Round != last || !reflect.DeepEqual(censusMap(newest.Sorted), crashCounts(last)) {
			t.Errorf("%s: recovered watermark %d and newest batch %+v, want round %d's", cr.Step, latest, newest, last)
		}
		// The re-forward reaches the aggregator, which has the batch already.
		for end := time.Now().Add(5 * time.Second); metricValue(t, agg.Registry(), "consensus_duplicate_censuses_total") < dups+2 && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		if got := metricValue(t, agg.Registry(), "consensus_duplicate_censuses_total"); got < dups+2 {
			t.Errorf("%s: the recovered batch never reached the aggregator (duplicates %v -> %v)", cr.Step, dups, got)
		}
		if agg.StateHash() != hash {
			t.Errorf("%s: the re-forwarded batch changed the aggregator's fold", cr.Step)
		}
		c2.Close()
	}
}
