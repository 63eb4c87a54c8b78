package gossip

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/durable"
	"repro/internal/israce"
	"repro/internal/transport"
)

// openReplayMallocs is the heap allocations of one Open that replays a
// journal of rounds records onto a fresh follower (no failover, so it keeps
// no backlog), and what that follower holds afterwards: its latest round and
// its engine's spare census sets.
func openReplayMallocs(t *testing.T, rounds int) (mallocs uint64, latest, spares int) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := durable.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		rec := durable.RoundRecord{Round: r, Censuses: map[int][]int{0: counts(0, r), 1: counts(1, r)}}
		if _, err := j.AppendRound(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	n, err := NewNode(Config{Edge: 1, Members: []int{0, 1}, Of: 1, Fold: testFold(t, 2),
		PeerDial: func(int) (transport.Conn, error) { return nil, fmt.Errorf("no peers dialed") }})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = n.Open(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return after.Mallocs - before.Mallocs, n.eng.Latest(), n.eng.Spares()
}

// TestOpenReplayAllocs pins what each journaled round costs a recovering
// node that keeps no backlog, measured as the difference between replaying
// 128 rounds and 64: decoding the record and folding it. The census set a
// round is collected on goes back to the engine once the round is folded, so
// the whole replay fills one set — no fresh one per record.
func TestOpenReplayAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	short, latest, spares := openReplayMallocs(t, 64)
	if latest != 63 || spares != 1 {
		t.Fatalf("after replaying 64 rounds: latest %d, %d spare census sets; want 63 and 1", latest, spares)
	}
	long, latest, spares := openReplayMallocs(t, 128)
	if latest != 127 || spares != 1 {
		t.Fatalf("after replaying 128 rounds: latest %d, %d spare census sets; want 127 and 1", latest, spares)
	}
	perRound := float64(long-short) / 64
	t.Logf("replaying a journaled round: %.1f allocs", perRound)
	// The half is the store's occasional buffer growth, spread over rounds.
	if perRound > replayRoundAllocs+0.5 {
		t.Errorf("replaying a journaled round: %.1f allocs, want at most %d", perRound, replayRoundAllocs)
	}
}

// replayRoundAllocs is TestOpenReplayAllocs's pinned count.
const replayRoundAllocs = 3

// recordingConn keeps what each digest it sends says, read off the frame
// the way the cloud reads it, at Send — when the frame is encoded.
type recordingConn struct {
	transport.Conn
	mu   *sync.Mutex
	sent *[]transport.Digest
}

func (c recordingConn) Send(m transport.Message) error {
	if m.Kind == transport.KindDigest {
		var d transport.Digest
		frame, err := transport.Binary.AppendEncode(nil, m)
		if err == nil {
			if m, err = transport.Binary.Decode(frame); err == nil {
				err = transport.Decode(m, transport.KindDigest, &d)
			}
		}
		if err != nil {
			return err
		}
		c.mu.Lock()
		*c.sent = append(*c.sent, d)
		c.mu.Unlock()
	}
	return c.Conn.Send(m)
}

// digestOf copies the backlog as a digest would carry it, counts and all.
func digestOf(pending []durable.RoundRecord) []transport.DigestRound {
	var rounds []transport.DigestRound
	for _, rec := range pending {
		dr := transport.DigestRound{Round: rec.Round, Degraded: rec.Degraded}
		for _, c := range rec.Sorted {
			dr.Censuses = append(dr.Censuses, transport.Census{Edge: c.Edge, Round: c.Round, Counts: append([]int(nil), c.Counts...)})
		}
		rounds = append(rounds, dr)
	}
	return rounds
}

// TestEscalationLeaseOutlivesPrune: an escalation reads the backlog's census
// lists outside the node's lock while the digest is dialed and encoded. If
// the rounds it carries leave the backlog meanwhile — an overlapping
// escalation's ack prunes them, or a higher epoch's beat does — and new rounds
// complete, the digest it sends still says exactly what the backlog held
// when it was built: census sets pruned while an escalation reads them go to
// the collector, not back to the engine for the new rounds to refill.
func TestEscalationLeaseOutlivesPrune(t *testing.T) {
	for _, prune := range []string{"ack", "beat"} {
		t.Run(prune, func(t *testing.T) {
			var (
				mu   sync.Mutex
				sent []transport.Digest
				hold atomic.Bool // the next escalation's dial waits for gate
			)
			dialing, gate := make(chan struct{}), make(chan struct{})
			nodes, _, teardown := hoodCfg(t, 2, 1<<20, nil, func(c *Config) {
				c.FailoverTTL = time.Hour // both members keep the backlog; no beat fires
				dial := c.CloudDial
				c.CloudDial = func() (transport.Conn, error) {
					if hold.CompareAndSwap(true, false) {
						dialing <- struct{}{}
						<-gate
					}
					conn, err := dial()
					if err != nil {
						return nil, err
					}
					return recordingConn{Conn: conn, mu: &mu, sent: &sent}, nil
				}
			})
			defer teardown()
			leader := nodes[0]
			for r := 0; r < 4; r++ {
				driveRound(t, nodes, r)
			}
			hold.Store(true)
			done := make(chan error, 1)
			go func() { done <- leader.Flush() }()
			<-dialing
			leader.mu.Lock()
			want := digestOf(leader.pending)
			leader.mu.Unlock()

			switch prune {
			case "ack":
				if err := leader.Flush(); err != nil {
					t.Fatal(err)
				}
			case "beat":
				if err := leader.submitBeat(transport.HoodBeat{Hood: 0, Epoch: 1, Leader: 1, Escalated: 4}); err != nil {
					t.Fatal(err)
				}
			}
			if got := leader.Pending(); got != 0 {
				t.Fatalf("the %s left %d rounds in the backlog, want none", prune, got)
			}
			for r := 4; r < 12; r++ {
				driveRound(t, nodes, r)
			}
			close(gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			got := sent[len(sent)-1].Rounds
			mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the escalation in flight sent\n%+v\nwant what the backlog held when it was built\n%+v", got, want)
			}
			leader.mu.Lock()
			defer leader.mu.Unlock()
			if leader.reading != 0 {
				t.Errorf("after the escalations: %d still reading, want none", leader.reading)
			}
		})
	}
}

// TestBacklogShedRecyclesSets: the rounds MaxBacklog sheds hand their census
// sets back, so a capped backlog runs on a fixed handful of sets — the cap,
// the barrier completing and the next — however many rounds it sheds.
func TestBacklogShedRecyclesSets(t *testing.T) {
	var gate atomic.Bool // cloud partitioned: only the cap takes rounds off
	nodes, _, teardown := hoodCfg(t, 2, 1<<20, &gate, func(c *Config) { c.MaxBacklog = 3 })
	defer teardown()
	leader := nodes[0]
	seen := make(map[*cloud.CensusSet]bool)
	const rounds = 64
	for r := 0; r < rounds; r++ {
		driveRound(t, nodes, r)
		leader.mu.Lock()
		for _, set := range leader.sets {
			seen[set] = true
		}
		leader.mu.Unlock()
	}
	if shed := leader.metrics.backlogDrop.Value(); shed != rounds-3 {
		t.Fatalf("gossip_backlog_dropped_total = %d, want %d", shed, rounds-3)
	}
	if len(seen) > 3+2 {
		t.Errorf("the capped backlog held %d distinct census sets over %d rounds, want at most %d: the shed ones are not reused",
			len(seen), rounds, 3+2)
	}
}

// TestFailoverSparesStayBounded: over 2,000 rounds with failover on — every
// member mirrors the backlog — and the cloud partitioned for 1,000 of them,
// no node's engine ever holds more spare census sets than maxSpares, nor more
// than the node's backlog once held at its peak plus the barriers open beside
// it (the round completing and the next, which a faster peer opens): of the
// ~1,000 sets the ack frees on heal, the engine keeps maxSpares for the
// rounds after it and the collector takes the rest.
func TestFailoverSparesStayBounded(t *testing.T) {
	const rounds, heal, slack = 2000, 1500, 2
	var (
		up   atomic.Bool
		mu   sync.Mutex // guards peak, and hood until it is set
		peak [3]int
		hood []*Node
	)
	up.Store(true)
	// spare notes node i's backlog into its peak and returns the peak and
	// the engine's spare sets, with the node's lock held.
	spare := func(i int, n *Node) (int, int) {
		n.mu.Lock()
		defer n.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		peak[i] = max(peak[i], len(n.pending))
		return peak[i], n.eng.Spares()
	}
	nodes, _, teardown := hoodCfg(t, 3, 4, nil, func(c *Config) {
		c.FailoverTTL = 30 * time.Millisecond // a beat prunes the followers every 10 ms
		edge, dial := c.Edge, c.CloudDial
		c.CloudDial = func() (transport.Conn, error) {
			// An escalation dials with its backlog at its fullest.
			mu.Lock()
			var n *Node
			if hood != nil {
				n = hood[edge]
			}
			mu.Unlock()
			if n != nil {
				spare(edge, n)
			}
			if !up.Load() {
				return nil, fmt.Errorf("cloud partitioned away")
			}
			return dial()
		}
	})
	defer teardown()
	mu.Lock()
	hood = nodes
	mu.Unlock()
	check := func(round int) {
		t.Helper()
		for i, n := range nodes {
			peak, spares := spare(i, n)
			if spares > min(peak+slack, maxSpares) {
				t.Fatalf("after round %d node %d holds %d spare census sets, its backlog peaked at %d, the cap is %d", round, i, spares, peak, maxSpares)
			}
		}
	}
	for r := 0; r < rounds; r++ {
		up.Store(r < heal-1000 || r >= heal)
		driveRound(t, nodes, r)
		check(r)
	}
	for _, n := range nodes { // the leader, whichever the beats left leading
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "followers prune on the leader's beat", func() bool {
		return nodes[0].Pending()+nodes[1].Pending()+nodes[2].Pending() == 0
	})
	check(rounds)
	for i, n := range nodes {
		if peak, spares := spare(i, n); peak < 1000 || spares == 0 || spares > maxSpares {
			t.Errorf("node %d: backlog peaked at %d, then %d spare census sets: want at least 1000, and 1 to %d kept", i, peak, spares, maxSpares)
		}
	}
}
