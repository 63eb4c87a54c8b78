package gossip

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/transport"
)

// hoodSetting is what a generated gossip schedule runs under: the node's
// cadence, whether it leads (and keeps the escalation backlog) and its
// backlog cap (0: none).
type hoodSetting struct {
	Every      int
	Leader     bool
	MaxBacklog int
}

// hoodStep is one step of a generated gossip schedule: a "round" completes
// Round with both members' Counts but Member's (-1: none, else degraded);
// an "ack" is the cloud's acknowledgment of every round below Round; "fail"
// fails the next step's journal fsyncs and "spare" its creation of the next
// spare.
type hoodStep struct {
	Op     string
	Round  int
	Member int
	Counts [][]int
}

func genHood(rng *rand.Rand) (hoodSetting, []hoodStep) {
	set := hoodSetting{Every: 2 + rng.Intn(2), Leader: rng.Intn(4) > 0, MaxBacklog: []int{0, 0, 3}[rng.Intn(3)]}
	counts := func() []int {
		c := make([]int, 8)
		for v := 0; v < 10; v++ {
			c[rng.Intn(3)]++
		}
		return c
	}
	var steps []hoodStep
	acked := 0
	for r := 0; r < 4+rng.Intn(4); r++ {
		miss := -1
		if rng.Intn(4) == 0 {
			miss = rng.Intn(2)
		}
		steps = append(steps, hoodStep{Op: "round", Round: r, Member: miss, Counts: [][]int{counts(), counts()}})
		switch rng.Intn(8) {
		case 0, 1:
			acked += rng.Intn(r + 2 - acked)
			steps = append(steps, hoodStep{Op: "ack", Round: acked})
		case 2:
			steps = append(steps, hoodStep{Op: "fail"})
		case 3:
			steps = append(steps, hoodStep{Op: "spare"})
		}
	}
	return set, steps
}

func hoodApply(n *Node, st hoodStep) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch st.Op {
	case "round":
		var censuses []transport.Census
		for e, c := range st.Counts {
			if e != st.Member {
				censuses = append(censuses, transport.Census{Edge: e, Round: st.Round, Counts: c})
			}
		}
		b, late, err := n.eng.Place(st.Round, censuses, false)
		if err == nil && !late {
			n.completeLocalLocked(st.Round, b, b.Size() < 2)
		} else if err == nil {
			err = fmt.Errorf("round %d is late", st.Round)
		}
		return err
	case "ack":
		n.ackLocked(st.Round)
	}
	return nil
}

// hoodOwner is a node a generated schedule runs on.
type hoodOwner struct{ *Node }

func (o hoodOwner) Step(st hoodStep) error { return hoodApply(o.Node, st) }

// State is what a recovery must reproduce of a node: its round, its fold's
// hash, its escalation watermark and the backlog, round by round.
func (o hoodOwner) State() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := fmt.Appendf(nil, "latest %d hash %08x escalated %d backlog", o.eng.Latest(), o.fold.Hash(), o.escalated)
	for _, rec := range o.pending {
		b = fmt.Appendf(b, " %d:%v:%+v", rec.Round, rec.Degraded, rec.Sorted)
	}
	return string(b)
}

func (o hoodOwner) Settle() { _ = o.journal.WaitCheckpoint() }

func (o hoodOwner) Drain() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.journal.Drain()
}

// hoodSchedule is how crashtest.Check runs a generated gossip schedule. An
// ack's checkpoint is durable with the next append's fsync: a crash before
// it recovers the backlog from before the ack.
func hoodSchedule(t *testing.T, set hoodSetting, steps []hoodStep) crashtest.Schedule[hoodStep] {
	return crashtest.Schedule[hoodStep]{
		Steps: steps,
		Open: func(dir string, hook func(op, path string) error) (crashtest.Owner[hoodStep], error) {
			edge := 1
			if set.Leader {
				edge = 0
			}
			n, err := NewNode(Config{Edge: edge, Members: []int{0, 1}, Of: 1, EscalateEvery: 1 << 20, MaxBacklog: set.MaxBacklog,
				Deadline: time.Second, ReplyTimeout: time.Second, Fold: testFold(t, 2),
				PeerDial:  func(int) (transport.Conn, error) { return nil, fmt.Errorf("no peers") },
				CloudDial: func() (transport.Conn, error) { return nil, fmt.Errorf("no cloud") }})
			if err == nil && dir != "" {
				n.journal = durable.NewJournal(hook, set.Every)
				err = n.Open(dir)
			}
			return hoodOwner{n}, err
		},
		Fail: func(st hoodStep) (string, bool) {
			return map[string]string{"fail": "sync journal", "spare": "create journal"}[st.Op], st.Op == "fail"
		},
		Unsynced: func(st hoodStep) bool { return st.Op == "ack" },
	}
}

// TestCheckpointCrashPoints is the gossip node's crash-point generator: leaders
// checkpointing over an unacknowledged backlog, acks, backlog sheds and
// followers at their count cadence, each recovered from a copy taken
// before every disk operation (see hoodSchedule).
func TestCheckpointCrashPoints(t *testing.T) {
	crashtest.Explore(t, 1000, nil, genHood, func(t *testing.T, set hoodSetting, steps []hoodStep) error {
		return crashtest.Check(t, hoodSchedule(t, set, steps))
	})
}

// TestRecoveredHoodEscalates runs a hood of two nodes, leader and follower,
// through their commit paths to a cloud, checkpointing every fourth record.
// The follower's cadence round is the commit-path pin: one journal fsync, on
// the journal's appender, and nothing else there. Open on a copy taken
// before each of its disk operations must recover the follower's round and
// hash (the round before's, from a copy that lost the round's unsynced
// record); then the leader, cut off from the cloud, checkpoints over a backlog,
// and Open on each copy of that must recover the backlog, which escalates to
// a cloud that ends on the hood's hash.
func TestRecoveredHoodEscalates(t *testing.T) {
	var gate atomic.Bool
	gate.Store(true)
	netw := transport.NewInprocNetwork()
	srv := testCloud(t, 2)
	defer srv.Close()
	cl, err := netw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	go srv.Serve(cl)
	mk := func(i int) *Node {
		node, err := NewNode(Config{
			Edge: i, Members: []int{0, 1}, Neighborhood: 0, Of: 1, EscalateEvery: 3,
			Deadline: 2 * time.Second, ReplyTimeout: 2 * time.Second, Fold: testFold(t, 2),
			PeerDial: func(member int) (transport.Conn, error) { return netw.Dial(fmt.Sprintf("gossip-%d", member)) },
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
		t.Cleanup(node.Close)
		return node
	}
	nodes, recs := []*Node{mk(0), mk(1)}, make([]*crashtest.Recorder, 2)
	for i, node := range nodes {
		dir := t.TempDir()
		recs[i] = crashtest.New(t, dir)
		node.journal = durable.NewJournal(recs[i].Hook, 4)
		if err := node.Open(dir); err != nil {
			t.Fatal(err)
		}
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go node.Serve(l)
	}
	leader, follower := nodes[0], nodes[1]
	view := func(n *Node) string {
		return fmt.Sprintf("round %d, hash %08x, backlog %d", n.Latest(), n.StateHash(), n.Pending())
	}
	// recovered opens node i on c's directory, which must hold the twin's
	// state — or, where the copy lost the armed round's unsynced record, a
	// crash before its fsync, the state before the round (before).
	recovered := func(i int, c crashtest.Crash, twin *Node, before string) *Node {
		t.Helper()
		node := mk(i)
		if err := node.Open(c.Dir); err != nil {
			t.Fatalf("%s: Open: %v", c.Step, err)
		}
		want := view(twin)
		if strings.HasSuffix(c.Step, "unsynced tail lost") {
			want = before
		}
		if got := view(node); got != want {
			t.Errorf("%s: recovered %s; want %s", c.Step, got, want)
		}
		return node
	}

	for round := 0; round < 3; round++ {
		driveRound(t, nodes, round)
	}
	// The follower's fourth record is its cadence: the round is completed by
	// the follower's own census, submitted on this goroutine once the
	// leader's is on its barrier.
	led := make(chan error, 1)
	go func() {
		_, err := leader.LocalRound(3, counts(0, 3))
		led <- err
	}()
	waitFor(t, 5*time.Second, "the leader's census on the follower's barrier", func() bool {
		follower.mu.Lock()
		defer follower.mu.Unlock()
		b, ok := follower.eng.Barrier(3)
		return ok && b.Size() == 1
	})
	before := view(follower)
	recs[1].Reset()
	recs[1].Arm()
	if _, err := follower.LocalRound(3, counts(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if err := follower.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	recs[1].Committer(t)
	for _, c := range recs[1].Crashes() {
		recovered(1, c, follower, before).Close()
	}

	if err := leader.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	gate.Store(false)
	for round := 4; round < 9; round++ {
		if round == 8 {
			before = view(leader)
			recs[0].Arm()
		}
		driveRound(t, nodes, round)
	}
	if leader.Pending() < 5 {
		t.Fatalf("leader backlog = %d rounds, want at least the 5 run while partitioned", leader.Pending())
	}
	leader.mu.Lock()
	leader.journal.Compact()
	leader.mu.Unlock()
	if err := leader.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	for _, c := range recs[0].Crashes() {
		node := recovered(0, c, leader, before)
		if err := node.Flush(); err != nil {
			t.Errorf("%s: Flush of the recovered backlog: %v", c.Step, err)
		}
		if srv.Latest() != leader.Latest() || srv.StateHash() != leader.StateHash() {
			t.Errorf("%s: the cloud is at round %d, hash %08x after the recovered backlog escalated; the hood at %d, %08x",
				c.Step, srv.Latest(), srv.StateHash(), leader.Latest(), leader.StateHash())
		}
		node.Close()
	}
}

// TestUpgradeInPlace opens state directories as a process upgraded mid-life
// leaves them — the checkpoint and the older half of the journal as
// encoding/json wrote them before payloads were binary, the newer half binary
// — for a hood leader with a backlog, a follower past its checkpoint cadence
// and the cloud their digests reached. Each must recover to the round, hash
// and backlog its all-binary twin recovers to.
func TestUpgradeInPlace(t *testing.T) {
	var gate atomic.Bool
	gate.Store(true)
	netw := transport.NewInprocNetwork()
	srv := testCloud(t, 2)
	cloudDir := t.TempDir()
	if err := srv.Open(cloudDir); err != nil {
		t.Fatal(err)
	}
	cl, err := netw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(cl)
	mk := func(i int, dir string) *Node {
		node, err := NewNode(Config{
			Edge: i, Members: []int{0, 1}, Neighborhood: 0, Of: 1,
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
		if err == nil {
			err = node.Open(dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := []*Node{mk(0, dirs[0]), mk(1, dirs[1])}
	for i, node := range nodes {
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go node.Serve(l)
	}
	round := 0
	for ; round < durable.CompactEvery+4; round++ {
		driveRound(t, nodes, round)
	}
	gate.Store(false) // the leader's backlog stays journaled
	for end := round + 2; round < end; round++ {
		driveRound(t, nodes, round)
	}
	for _, node := range nodes {
		node.Close()
	}
	srv.Close()
	cl.Close()

	for i, dir := range dirs {
		twin, upgraded := mk(i, crashtest.CopyDir(t, dir)), mk(i, upgradedLayout(t, dir))
		if upgraded.Latest() != twin.Latest() || upgraded.StateHash() != twin.StateHash() || upgraded.Pending() != twin.Pending() {
			t.Errorf("edge %d: upgraded directory recovers to round %d, hash %08x, backlog %d; its twin to %d, %08x, %d", i,
				upgraded.Latest(), upgraded.StateHash(), upgraded.Pending(), twin.Latest(), twin.StateHash(), twin.Pending())
		}
		twin.Close()
		upgraded.Close()
	}
	twin, upgraded := testCloud(t, 2), testCloud(t, 2)
	defer twin.Close()
	defer upgraded.Close()
	if err := twin.Open(crashtest.CopyDir(t, cloudDir)); err != nil {
		t.Fatal(err)
	}
	if err := upgraded.Open(upgradedLayout(t, cloudDir)); err != nil {
		t.Fatal(err)
	}
	if twin.Latest() < durable.CompactEvery || upgraded.Latest() != twin.Latest() || upgraded.StateHash() != twin.StateHash() {
		t.Errorf("cloud: upgraded directory recovers to round %d, hash %08x; its twin to %d, %08x",
			upgraded.Latest(), upgraded.StateHash(), twin.Latest(), twin.StateHash())
	}
}

// upgradedLayout returns a copy of the state directory dir with its
// checkpoint, and the older half of its journal's records, re-encoded by
// json.Marshal, all records in one segment.
func upgradedLayout(t *testing.T, dir string) string {
	t.Helper()
	src, snap, err := durable.OpenJournal(crashtest.CopyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var payloads [][]byte
	if _, err := src.Store.Replay(func(p []byte) error { payloads = append(payloads, append([]byte(nil), p...)); return nil }); err != nil {
		t.Fatal(err)
	}
	if snap == nil || len(payloads) < 2 {
		t.Fatalf("%s: a checkpoint and %d journal records, want a checkpoint and two or more", dir, len(payloads))
	}
	dst := t.TempDir()
	out, err := durable.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cp, err := durable.DecodeCheckpoint(snap)
	if err == nil {
		snap, err = json.Marshal(cp)
	}
	if err == nil {
		crashtest.WriteLegacySnapshot(t, dst, snap)
	}
	for i := 0; err == nil && i < len(payloads); i++ {
		p := payloads[i]
		if i < len(payloads)/2 {
			var rec durable.RoundRecord
			if rec, err = durable.DecodeRound(p); err == nil {
				p, err = json.Marshal(rec)
			}
		}
		if err == nil {
			err = out.Append(p)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestOpenRefusesForeignCensus: a journaled round naming a region that is
// not the neighborhood's — another hood's region of the state, or one far
// past it — is refused at recovery before it is folded: Open fails naming
// the round, and the node stands where it started.
func TestOpenRefusesForeignCensus(t *testing.T) {
	for name, region := range map[string]int{"another hood's region": 1, "region 1<<40": 1 << 40} {
		dir := t.TempDir()
		j, _, err := durable.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.AppendRound(durable.RoundRecord{Round: 0, Censuses: map[int][]int{0: counts(0, 0), region: counts(1, 0)}}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		n, err := NewNode(Config{Edge: 0, Members: []int{0}, Of: 1, Fold: testFold(t, 2),
			PeerDial: func(int) (transport.Conn, error) { return nil, fmt.Errorf("no peers dialed") }})
		if err != nil {
			t.Fatal(err)
		}
		before := n.StateHash()
		if err := n.Open(dir); err == nil || !strings.Contains(err.Error(), "round 0") {
			t.Errorf("%s: Open = %v, want the record refused", name, err)
		}
		if got := n.StateHash(); got != before || n.Latest() != -1 {
			t.Errorf("%s: the refused record moved the node (hash %08x -> %08x, latest %d)", name, before, got, n.Latest())
		}
		n.Close()
	}
}
