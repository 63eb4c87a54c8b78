package gossip

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/crashtest"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

// meshGraph is an m-region test graph with uniform coupling.
type meshGraph struct{ m int }

func (g meshGraph) M() int { return g.m }
func (g meshGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.8
	}
	return 0.2 / float64(g.m-1)
}
func (g meshGraph) Neighbors(i int) []int {
	var ns []int
	for j := 0; j < g.m; j++ {
		if j != i {
			ns = append(ns, j)
		}
	}
	return ns
}

// testFold builds one independent fold over an m-region uniform state —
// every node (and the cloud's server fixture) gets its own so the test
// mirrors the real deployment, where bit-identity must emerge from the
// census stream alone.
func testFold(t *testing.T, m int) *cloud.Fold { return observedFold(t, m, nil) }

// observedFold is testFold with its FDS sweeps reported through o, if set.
func observedFold(t *testing.T, m int, o *obs.Observer) *cloud.Fold {
	t.Helper()
	model, err := game.NewModel(lattice.PaperPayoffs(), meshGraph{m: m}, uniformN(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, 8)
	target[0] = 0.7
	field, err := policy.NewUniformField(m, target, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for k := 1; k < 8; k++ {
			field.P[i][k].Lo, field.P[i][k].Hi = 0, 1
		}
	}
	fds, err := policy.NewFDS(model, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		fds.Instrument(o)
	}
	fold, err := cloud.NewFold(fds, game.NewUniformState(m, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return fold
}

func uniformN(m int, v float64) []float64 {
	ns := make([]float64, m)
	for i := range ns {
		ns[i] = v
	}
	return ns
}

func testCloud(t *testing.T, m int) *cloud.Server {
	t.Helper()
	model, err := game.NewModel(lattice.PaperPayoffs(), meshGraph{m: m}, uniformN(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, 8)
	target[0] = 0.7
	field, err := policy.NewUniformField(m, target, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for k := 1; k < 8; k++ {
			field.P[i][k].Lo, field.P[i][k].Hi = 0, 1
		}
	}
	fds, err := policy.NewFDS(model, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cloud.NewServer(fds, game.NewUniformState(m, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// counts returns a deterministic census for (edge, round).
func counts(edge, round int) []int {
	c := make([]int, 8)
	for k := range c {
		c[k] = 1 + (edge+round+k)%5
	}
	return c
}

// hood spins up one neighborhood of gossip nodes over an in-process network
// with a live cloud, returning the nodes and a teardown func. cloudGate,
// when non-nil, is consulted per cloud dial (false = partitioned).
func hood(t *testing.T, m, escalateEvery int, cloudGate *atomic.Bool) ([]*Node, *cloud.Server, func()) {
	t.Helper()
	return hoodCfg(t, m, escalateEvery, cloudGate, nil)
}

// hoodCfg is hood with a config hook applied to every node before NewNode.
func hoodCfg(t *testing.T, m, escalateEvery int, cloudGate *atomic.Bool, mutate func(*Config)) ([]*Node, *cloud.Server, func()) {
	t.Helper()
	netw := transport.NewInprocNetwork()
	srv := testCloud(t, m)
	cl, err := netw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(cl)

	members := make([]int, m)
	for i := range members {
		members[i] = i
	}
	nodes := make([]*Node, m)
	var listeners []transport.Listener
	for i := 0; i < m; i++ {
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
		cfg := Config{
			Edge:          i,
			Members:       members,
			Neighborhood:  0,
			Of:            1,
			EscalateEvery: escalateEvery,
			Deadline:      2 * time.Second,
			ReplyTimeout:  5 * time.Second,
			Fold:          testFold(t, m),
			PeerDial: func(member int) (transport.Conn, error) {
				return netw.Dial(fmt.Sprintf("gossip-%d", member))
			},
			CloudDial: func() (transport.Conn, error) {
				if cloudGate != nil && !cloudGate.Load() {
					return nil, fmt.Errorf("cloud partitioned away")
				}
				return netw.Dial("cloud")
			},
		}
		if mutate != nil {
			mutate(&cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		go node.Serve(l)
	}
	return nodes, srv, func() {
		for _, n := range nodes {
			n.Close()
		}
		for _, l := range listeners {
			l.Close()
		}
		srv.Close()
		cl.Close()
	}
}

// driveRound runs one lockstep round across all live nodes.
func driveRound(t *testing.T, nodes []*Node, round int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	for i, n := range nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			_, errs[i] = n.LocalRound(round, counts(i, round))
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("round %d edge %d: %v", round, i, err)
		}
	}
}

func TestNeighborhoodsCoverAllRegions(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{1, 1}, {4, 2}, {9, 3}, {5, 8}} {
		hoods, err := Neighborhoods(tc.m, tc.n)
		if err != nil {
			t.Fatalf("Neighborhoods(%d,%d): %v", tc.m, tc.n, err)
		}
		seen := make(map[int]bool)
		for h, members := range hoods {
			if len(members) == 0 {
				t.Errorf("Neighborhoods(%d,%d): hood %d empty", tc.m, tc.n, h)
			}
			for _, r := range members {
				if seen[r] {
					t.Errorf("Neighborhoods(%d,%d): region %d assigned twice", tc.m, tc.n, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != tc.m {
			t.Errorf("Neighborhoods(%d,%d): covered %d regions, want %d", tc.m, tc.n, len(seen), tc.m)
		}
		again, err := Neighborhoods(tc.m, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for h := range hoods {
			if fmt.Sprint(hoods[h]) != fmt.Sprint(again[h]) {
				t.Errorf("Neighborhoods(%d,%d) not deterministic", tc.m, tc.n)
			}
		}
	}
}

// TestLocalRoundsConvergeAndEscalate is the happy path: every node folds the
// same rounds to bit-identical states, and the leader's digests drive the
// cloud to the same state.
func TestLocalRoundsConvergeAndEscalate(t *testing.T) {
	nodes, srv, teardown := hood(t, 3, 2, nil)
	defer teardown()

	const rounds = 6
	for r := 0; r < rounds; r++ {
		driveRound(t, nodes, r)
	}
	for i, n := range nodes {
		if got := n.Latest(); got != rounds-1 {
			t.Errorf("edge %d latest = %d, want %d", i, got, rounds-1)
		}
		if n.StateHash() != nodes[0].StateHash() {
			t.Errorf("edge %d state hash %08x != edge 0 %08x", i, n.StateHash(), nodes[0].StateHash())
		}
	}
	if err := nodes[0].Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := srv.Latest(); got != rounds-1 {
		t.Errorf("cloud latest = %d, want %d", got, rounds-1)
	}
	if srv.StateHash() != nodes[0].StateHash() {
		t.Errorf("cloud state hash %08x != local %08x", srv.StateHash(), nodes[0].StateHash())
	}
	if x, ok := nodes[0].CloudRatio(); !ok || x <= 0 {
		t.Errorf("leader adopted no cloud ratio view (x=%v ok=%v)", x, ok)
	}
	if nodes[1].Leader() || !nodes[0].Leader() {
		t.Error("leader must be the smallest member id")
	}
}

// TestPartitionHealBitIdentical proves the determinism claim at package
// level: a run whose cloud is unreachable for the middle half of its rounds
// reconciles, on heal, to the exact control-plane hash of an always-
// connected run.
func TestPartitionHealBitIdentical(t *testing.T) {
	run := func(partition bool) (uint32, uint32) {
		var gate atomic.Bool
		gate.Store(true)
		nodes, srv, teardown := hood(t, 3, 2, &gate)
		defer teardown()
		const rounds = 8
		for r := 0; r < rounds; r++ {
			if partition {
				gate.Store(!(r >= 2 && r < 6))
			}
			driveRound(t, nodes, r)
		}
		gate.Store(true)
		if err := nodes[0].Flush(); err != nil {
			t.Fatalf("final flush: %v", err)
		}
		return srv.StateHash(), nodes[0].StateHash()
	}
	cloudA, localA := run(false)
	cloudB, localB := run(true)
	if cloudA != cloudB {
		t.Errorf("partitioned cloud hash %08x != connected %08x", cloudB, cloudA)
	}
	if localA != localB {
		t.Errorf("partitioned local hash %08x != connected %08x", localB, localA)
	}
	if cloudA != localA {
		t.Errorf("cloud hash %08x != local hash %08x", cloudA, localA)
	}
}

// TestPartitionKeepsLocalRoundsRunning checks the edge-autonomy claim: with
// the cloud gone, local rounds (and their policy output) keep advancing,
// and escalation failures are what accumulate instead.
func TestPartitionKeepsLocalRoundsRunning(t *testing.T) {
	var gate atomic.Bool // starts false: cloud partitioned from round 0
	nodes, srv, teardown := hood(t, 2, 1, &gate)
	defer teardown()
	for r := 0; r < 4; r++ {
		driveRound(t, nodes, r)
	}
	if got := nodes[0].Latest(); got != 3 {
		t.Errorf("local rounds stalled at %d during partition, want 3", got)
	}
	if got := srv.Latest(); got != -1 {
		t.Errorf("cloud advanced to %d during partition, want -1", got)
	}
	if nodes[0].Pending() != 4 {
		t.Errorf("leader pending = %d, want 4", nodes[0].Pending())
	}
	gate.Store(true)
	if err := nodes[0].Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if got := srv.Latest(); got != 3 {
		t.Errorf("cloud latest after heal = %d, want 3", got)
	}
	if nodes[0].Pending() != 0 {
		t.Errorf("leader pending after heal = %d, want 0", nodes[0].Pending())
	}
}

// TestDegradedLocalRounds checks that a dead member degrades rounds via the
// deadline instead of stalling the neighborhood.
func TestDegradedLocalRounds(t *testing.T) {
	netw := transport.NewInprocNetwork()
	members := []int{0, 1, 2}
	var nodes []*Node
	// Member 2 never comes up: no listener, no rounds.
	for i := 0; i < 2; i++ {
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		node, err := NewNode(Config{
			Edge: i, Members: members, Neighborhood: 0, Of: 1,
			EscalateEvery: 100, // never escalate in this test
			Deadline:      400 * time.Millisecond,
			ReplyTimeout:  time.Second,
			Fold:          testFold(t, 3),
			PeerDial: func(member int) (transport.Conn, error) {
				return netw.Dial(fmt.Sprintf("gossip-%d", member))
			},
			CloudDial: func() (transport.Conn, error) { return nil, fmt.Errorf("no cloud") },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes = append(nodes, node)
		go node.Serve(l)
	}
	driveRound(t, nodes, 0)
	driveRound(t, nodes, 1)
	if nodes[0].StateHash() != nodes[1].StateHash() {
		t.Errorf("degraded folds diverged: %08x vs %08x", nodes[0].StateHash(), nodes[1].StateHash())
	}
	if got := nodes[0].Latest(); got != 1 {
		t.Errorf("latest = %d, want 1", got)
	}
}

// TestRecoveryRebuildsFoldAndBacklog kills the leader after some rounds and
// reopens its journal: the fold hash must match a survivor bit-for-bit and
// the unacked backlog must re-escalate on Flush.
func TestRecoveryRebuildsFoldAndBacklog(t *testing.T) {
	var gate atomic.Bool // cloud partitioned: backlog accumulates
	netw := transport.NewInprocNetwork()
	srv := testCloud(t, 2)
	defer srv.Close()
	cl, err := netw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	go srv.Serve(cl)

	members := []int{0, 1}
	dirs := []string{t.TempDir(), t.TempDir()}
	mk := func(i int) (*Node, transport.Listener) {
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			Edge: i, Members: members, Neighborhood: 0, Of: 1,
			EscalateEvery: 3,
			Deadline:      2 * time.Second,
			ReplyTimeout:  2 * time.Second,
			Fold:          testFold(t, 2),
			PeerDial: func(member int) (transport.Conn, error) {
				return netw.Dial(fmt.Sprintf("gossip-%d", member))
			},
			CloudDial: func() (transport.Conn, error) {
				if !gate.Load() {
					return nil, fmt.Errorf("cloud partitioned away")
				}
				return netw.Dial("cloud")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Open(dirs[i]); err != nil {
			t.Fatal(err)
		}
		go node.Serve(l)
		return node, l
	}
	n0, l0 := mk(0)
	n1, l1 := mk(1)
	defer n1.Close()
	defer l1.Close()
	for r := 0; r < 5; r++ {
		driveRound(t, []*Node{n0, n1}, r)
	}
	wantHash := n1.StateHash()
	if n0.Pending() != 5 {
		t.Fatalf("leader pending = %d, want 5", n0.Pending())
	}

	// Kill -9: Close without Flush, reopen from the journal.
	n0.Close()
	l0.Close()
	n0, l0 = mk(0)
	defer n0.Close()
	defer l0.Close()
	if got := n0.StateHash(); got != wantHash {
		t.Fatalf("recovered hash %08x != survivor %08x", got, wantHash)
	}
	if got := n0.Latest(); got != 4 {
		t.Fatalf("recovered latest = %d, want 4", got)
	}
	if got := n0.Pending(); got != 5 {
		t.Fatalf("recovered pending = %d, want 5", got)
	}
	gate.Store(true)
	if err := n0.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := srv.Latest(); got != 4 {
		t.Errorf("cloud latest = %d, want 4", got)
	}
	if srv.StateHash() != wantHash {
		t.Errorf("cloud hash %08x != local %08x", srv.StateHash(), wantHash)
	}
}

// waitFor polls cond until it holds or the timeout fails the test.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverPromotesSuccessor checks the liveness half of failover: when
// the leader dies silently, the ring successor promotes itself within the
// TTL, the epoch propagates, and the survivors keep folding identically.
func TestFailoverPromotesSuccessor(t *testing.T) {
	var gate atomic.Bool // cloud partitioned throughout
	nodes, _, teardown := hoodCfg(t, 3, 100, &gate, func(c *Config) {
		c.FailoverTTL = 100 * time.Millisecond
		c.Deadline = 500 * time.Millisecond
	})
	defer teardown()
	driveRound(t, nodes, 0)
	driveRound(t, nodes, 1)
	if !nodes[0].Leader() || nodes[1].Leader() {
		t.Fatal("epoch 0 leadership should sit on the smallest member")
	}
	if nodes[1].Pending() != 2 || nodes[2].Pending() != 2 {
		t.Errorf("followers must mirror the backlog under failover: pending = %d,%d, want 2,2",
			nodes[1].Pending(), nodes[2].Pending())
	}

	nodes[0].Close() // kill -9: no Flush, beats just stop
	waitFor(t, 5*time.Second, "successor promotion", func() bool { return nodes[1].Leader() })
	if got := nodes[1].Epoch(); got != 1 {
		t.Errorf("successor epoch = %d, want 1", got)
	}
	if got := nodes[1].metrics.failovers.Value(); got != 1 {
		t.Errorf("gossip_failovers_total = %d, want 1", got)
	}
	waitFor(t, 5*time.Second, "epoch propagation to the third member", func() bool {
		return nodes[2].Epoch() == 1 && !nodes[2].Leader()
	})

	// Rounds keep completing (degraded by the dead member's deadline) and
	// the survivors' folds stay bit-identical.
	driveRound(t, []*Node{nil, nodes[1], nodes[2]}, 2)
	if nodes[1].StateHash() != nodes[2].StateHash() {
		t.Errorf("survivor folds diverged: %08x vs %08x", nodes[1].StateHash(), nodes[2].StateHash())
	}
	if nodes[1].Latest() != 2 {
		t.Errorf("rounds stalled after failover: latest = %d, want 2", nodes[1].Latest())
	}
}

// TestBacklogCapShedsOldest checks the bounded-backlog satellite: with the
// cloud partitioned, a capped leader sheds its oldest unacked rounds
// (counting them) and later escalates only what it kept — the cloud still
// folds the surviving tail. A restart from the leader's directory, which no
// checkpoint has bounded, sheds the same rounds again, uncounted: they stay
// forgone.
func TestBacklogCapShedsOldest(t *testing.T) {
	var gate atomic.Bool // cloud partitioned: the backlog grows
	nodes, srv, teardown := hoodCfg(t, 2, 100, &gate, func(c *Config) {
		c.MaxBacklog = 3
	})
	defer teardown()
	dir := t.TempDir()
	if err := nodes[0].Open(dir); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		driveRound(t, nodes, r)
	}
	if got := nodes[0].Pending(); got != 3 {
		t.Errorf("leader pending = %d, want capped at 3", got)
	}
	if got := nodes[0].metrics.backlogDrop.Value(); got != 3 {
		t.Errorf("gossip_backlog_dropped_total = %d, want 3", got)
	}
	if got := nodes[1].Pending(); got != 0 {
		t.Errorf("non-failover follower pending = %d, want 0", got)
	}
	restarted, err := NewNode(Config{
		Edge: 0, Members: []int{0, 1}, Of: 1, EscalateEvery: 100, MaxBacklog: 3, Fold: testFold(t, 2),
		PeerDial: func(int) (transport.Conn, error) { return nil, errors.New("no peers dialed") },
	})
	if err == nil {
		err = restarted.Open(crashtest.CopyDir(t, dir))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	restarted.mu.Lock()
	var kept []int
	for _, rec := range restarted.pending {
		kept = append(kept, rec.Round)
	}
	escalated := restarted.escalated
	restarted.mu.Unlock()
	if got := restarted.Pending(); got != 3 || !reflect.DeepEqual(kept, []int{3, 4, 5}) || escalated != 3 {
		t.Errorf("restarted leader pending = %d rounds %v, escalation watermark %d; want 3 rounds [3 4 5] and 3", got, kept, escalated)
	}
	if got := restarted.metrics.backlogDrop.Value(); got != 0 {
		t.Errorf("restarted gossip_backlog_dropped_total = %d, want 0: the replay sheds what was shed and counted live", got)
	}
	gate.Store(true)
	if err := nodes[0].Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := srv.Latest(); got != 5 {
		t.Errorf("cloud latest = %d, want 5 (shed rounds are forgone, the kept tail still folds)", got)
	}
}

// TestGossipLeaderFailoverGolden is the acceptance bar for leader failover:
// a run whose leader is kill -9'd mid-partition — successor takeover,
// journal-backed backlog handoff, and the old leader restarting from its
// journal as a demoted follower — must produce cloud and local state hashes
// bit-identical to an always-healthy lossless run.
func TestGossipLeaderFailoverGolden(t *testing.T) {
	const (
		m      = 3
		rounds = 8
		ttl    = 150 * time.Millisecond
	)
	run := func(kill bool) (uint32, uint32) {
		var gate atomic.Bool
		gate.Store(true)
		netw := transport.NewInprocNetwork()
		srv := testCloud(t, m)
		defer srv.Close()
		cl, err := netw.Listen("cloud")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		go srv.Serve(cl)

		members := []int{0, 1, 2}
		dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
		nodes := make([]*Node, m)
		listeners := make([]transport.Listener, m)
		mk := func(i int) {
			l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			node, err := NewNode(Config{
				Edge: i, Members: members, Neighborhood: 0, Of: 1,
				EscalateEvery: 2,
				Deadline:      2 * time.Second,
				ReplyTimeout:  2 * time.Second,
				FailoverTTL:   ttl,
				Fold:          testFold(t, m),
				PeerDial: func(member int) (transport.Conn, error) {
					return netw.Dial(fmt.Sprintf("gossip-%d", member))
				},
				CloudDial: func() (transport.Conn, error) {
					if !gate.Load() {
						return nil, fmt.Errorf("cloud partitioned away")
					}
					return netw.Dial("cloud")
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Open(dirs[i]); err != nil {
				t.Fatal(err)
			}
			go node.Serve(l)
			nodes[i], listeners[i] = node, l
		}
		for i := 0; i < m; i++ {
			mk(i)
		}
		defer func() {
			for _, n := range nodes {
				n.Close()
			}
			for _, l := range listeners {
				l.Close()
			}
		}()

		// Rounds 0-1 connected (the boundary escalation acks them), rounds
		// 2-5 partitioned from the cloud, rounds 6-7 healed.
		for r := 0; r < 4; r++ {
			gate.Store(r < 2)
			driveRound(t, nodes, r)
		}
		if kill {
			// kill -9 the leader mid-partition: no Flush, its journal is all
			// that survives. The successor must promote and inherit the
			// backlog its own journal-backed history mirrors.
			nodes[0].Close()
			listeners[0].Close()
			waitFor(t, 10*time.Second, "successor promotion", func() bool { return nodes[1].Leader() })
			// Restart the killed leader from its journal: it recovers its
			// fold, rejoins tentatively, and the successor's higher-epoch
			// beat demotes it to follower before it escalates anything.
			mk(0)
			waitFor(t, 10*time.Second, "old leader demotion", func() bool {
				return nodes[0].Epoch() >= 1 && !nodes[0].Leader()
			})
		}
		for r := 4; r < rounds; r++ {
			gate.Store(r >= 6)
			driveRound(t, nodes, r)
		}
		gate.Store(true)
		for _, n := range nodes {
			if err := n.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
		if kill {
			if nodes[0].Leader() {
				t.Error("restarted old leader still claims leadership")
			}
			if !nodes[1].Leader() {
				t.Error("successor lost leadership after the old leader rejoined")
			}
		}
		for i := 1; i < m; i++ {
			if nodes[i].StateHash() != nodes[0].StateHash() {
				t.Errorf("edge %d local hash %08x != edge 0 %08x", i, nodes[i].StateHash(), nodes[0].StateHash())
			}
		}
		if got := srv.Latest(); got != rounds-1 {
			t.Errorf("cloud latest = %d, want %d", got, rounds-1)
		}
		return srv.StateHash(), nodes[0].StateHash()
	}
	cloudA, localA := run(false)
	cloudB, localB := run(true)
	if cloudB != cloudA {
		t.Errorf("leader-killed cloud hash %08x != lossless %08x", cloudB, cloudA)
	}
	if localB != localA {
		t.Errorf("leader-killed local hash %08x != lossless %08x", localB, localA)
	}
	if cloudA != localA {
		t.Errorf("cloud hash %08x != local hash %08x", cloudA, localA)
	}
}

// TestStateHashGaugePerNode: gossip_state_hash{edge} is computed when read,
// so on a registry two nodes share each node's series reads that node's own
// fold — at construction, after every local round, and after a crashed node
// recovers its fold from the journal.
func TestStateHashGaugePerNode(t *testing.T) {
	netw := transport.NewInprocNetwork()
	o := obs.New()
	dirs := []string{t.TempDir(), t.TempDir()}
	mk := func(i int) (*Node, transport.Listener) {
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			Edge: i, Members: []int{0, 1}, Neighborhood: 0, Of: 1,
			EscalateEvery: 100, // never inside this test: no cloud is listening
			Deadline:      2 * time.Second,
			ReplyTimeout:  2 * time.Second,
			Fold:          testFold(t, 2),
			PeerDial: func(member int) (transport.Conn, error) {
				return netw.Dial(fmt.Sprintf("gossip-%d", member))
			},
			CloudDial: func() (transport.Conn, error) { return nil, fmt.Errorf("no cloud") },
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Instrument(o)
		if err := node.Open(dirs[i]); err != nil {
			t.Fatal(err)
		}
		go node.Serve(l)
		return node, l
	}
	gauge := func(edge int) uint32 {
		t.Helper()
		for _, p := range o.Registry().Snapshot() {
			if p.Name == "gossip_state_hash" && p.Labels[0].Value == strconv.Itoa(edge) {
				return uint32(p.Value)
			}
		}
		t.Fatalf("no gossip_state_hash{edge=%d} in the registry", edge)
		return 0
	}
	check := func(step string, nodes ...*Node) {
		t.Helper()
		for i, n := range nodes {
			if got, want := gauge(i), n.StateHash(); got != want {
				t.Fatalf("%s: gossip_state_hash{edge=%d} = %08x, node holds %08x", step, i, got, want)
			}
		}
	}
	n0, l0 := mk(0)
	n1, l1 := mk(1)
	defer n1.Close()
	defer l1.Close()
	check("before the first round", n0, n1)
	initial := n0.StateHash()
	for r := 0; r < 4; r++ {
		driveRound(t, []*Node{n0, n1}, r)
		check(fmt.Sprintf("round %d", r), n0, n1)
	}
	if n0.StateHash() == initial {
		t.Fatal("four rounds left the state where it started")
	}
	// The kernel's round histogram is bound too: one observation per node
	// per local round.
	if n := o.Histogram("gossip_round_duration_seconds", "", nil).Count(); n != 8 {
		t.Errorf("gossip_round_duration_seconds observed %d rounds, want 8 (two nodes, four rounds)", n)
	}
	want := n0.StateHash()
	n0.Close() // kill -9
	l0.Close()
	n0, l0 = mk(0)
	defer n0.Close()
	defer l0.Close()
	check("after recovery", n0, n1)
	if got := gauge(0); got != want {
		t.Fatalf("recovered gossip_state_hash{edge=0} = %08x, want %08x", got, want)
	}
}
