package gossip

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/transport"
)

// TestCheckpointCrashPoints is the gossip tier's crash-point matrix (see the
// cloud's): the state directory as it stands before each step of a
// background checkpoint, with a torn tail, and in the parent's one-file
// layout — for a follower at its count cadence, which retains nothing, and
// for a leader checkpointing over an unacknowledged backlog, copied from
// before the fsync of its last round's record on: written ahead of the fold,
// with nobody answered. Open must recover the survivor's fold, the round, and
// the whole backlog, which then escalates to a cloud that ends on the same
// hash. The follower's cadence round is the commit-path pin: one journal
// fsync, on the journal's appender, and nothing else there.
func TestCheckpointCrashPoints(t *testing.T) {
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
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		return node
	}
	nodes := make([]*Node, 2)
	recs := make([]*crashtest.Recorder, 2)
	// The leader's round whose record's fsync must find it unreleased (-1:
	// none): the copy taken there is a record written ahead, with nobody
	// answered. A release out of order shows within the wait given it.
	var unreleased atomic.Int64
	unreleased.Store(-1)
	for i := range nodes {
		nodes[i] = mk(i)
		dir := t.TempDir()
		recs[i] = crashtest.New(t, dir)
		hook := recs[i].Hook
		if i == 0 {
			hook = func(op, path string) error {
				err := recs[0].Hook(op, path)
				if r := unreleased.Load(); r >= 0 && op == "sync" && strings.HasPrefix(filepath.Base(path), "journal") {
					for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
						if nodes[0].metrics.Rounds.Value() > r {
							t.Errorf("the leader released round %d before its record's fsync", r)
							break
						}
					}
				}
				return err
			}
		}
		nodes[i].journal = durable.NewJournal(hook)
		if err := nodes[i].Open(dir); err != nil {
			t.Fatal(err)
		}
		l, err := netw.Listen(fmt.Sprintf("gossip-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go nodes[i].Serve(l)
	}
	leader, follower := nodes[0], nodes[1]

	matrix := func(rec *crashtest.Recorder, wantSteps []string) []crashtest.Crash {
		t.Helper()
		crashes := rec.Crashes()
		var steps []string
		for _, c := range crashes {
			steps = append(steps, c.Step)
		}
		if wantSteps != nil && !reflect.DeepEqual(steps, wantSteps) || len(steps) < 7 {
			t.Fatalf("background checkpoint steps = %q, want %q", steps, wantSteps)
		}
		final := crashes[len(crashes)-1].Dir
		torn := crashtest.CopyDir(t, final)
		crashtest.TearTail(t, torn)
		return append(crashes,
			crashtest.Crash{Step: "torn tail in the newest segment", Dir: torn},
			crashtest.Crash{Step: "parent layout", Dir: crashtest.ParentLayout(t, final)})
	}
	recovered := func(i int, c crashtest.Crash, twin *Node) *Node {
		t.Helper()
		node := mk(i)
		if err := node.Open(c.Dir); err != nil {
			t.Fatalf("%s: Open: %v", c.Step, err)
		}
		if got, want := node.Latest(), twin.Latest(); got != want {
			t.Errorf("%s: recovered latest = %d, want %d", c.Step, got, want)
		}
		if got, want := node.StateHash(), twin.StateHash(); got != want {
			t.Errorf("%s: recovered hash %08x != twin's %08x", c.Step, got, want)
		}
		if got, want := node.Pending(), twin.Pending(); got != want {
			t.Errorf("%s: recovered backlog = %d rounds, want %d", c.Step, got, want)
		}
		return node
	}

	// The follower's count cadence: 32 rounds, the leader's escalations
	// acknowledged (and checkpointed) every third on the way.
	cadence := durable.CompactEvery - 1
	for round := 0; round < cadence; round++ {
		driveRound(t, nodes, round)
	}
	recs[1].Reset()
	recs[1].Arm()
	driveRound(t, nodes, cadence)
	if err := follower.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	recs[1].Committer(t)
	for _, c := range matrix(recs[1], []string{
		"before sync journal.wal", // the cadence round's own record
		"before create checkpoint.snap.tmp", "before sync checkpoint.snap.tmp", "before rename checkpoint.snap",
		"before syncdir .", "before remove journal.wal", "before create journal.00000002.wal", "before syncdir .",
		"after the last step",
	}) {
		recovered(1, c, follower).Close()
	}

	// The leader, cut off from the cloud, accumulates a backlog and
	// checkpoints over it, as the acknowledgment of a digest that carried
	// only part of it would.
	if err := leader.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	gate.Store(false)
	for round := cadence + 1; round < cadence+5; round++ {
		driveRound(t, nodes, round)
	}
	recs[0].Arm()
	unreleased.Store(int64(cadence + 5))
	driveRound(t, nodes, cadence+5)
	unreleased.Store(-1)
	backlog := leader.Pending()
	if backlog < 5 {
		t.Fatalf("leader backlog = %d rounds, want at least the 5 run while partitioned", backlog)
	}
	leader.mu.Lock()
	leader.journal.Compact()
	leader.mu.Unlock()
	if err := leader.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	crashes := matrix(recs[0], nil)
	if !strings.HasPrefix(crashes[0].Step, "before sync journal") {
		t.Fatalf("the leader's first crash point is %q, want the fsync of its round record", crashes[0].Step)
	}
	for _, c := range crashes {
		node := recovered(0, c, leader)
		if err := node.Flush(); err != nil {
			t.Errorf("%s: Flush of the recovered backlog: %v", c.Step, err)
		}
		if got := srv.Latest(); got != leader.Latest() {
			t.Errorf("%s: cloud latest = %d after the recovered backlog escalated, want %d", c.Step, got, leader.Latest())
		}
		if srv.StateHash() != leader.StateHash() {
			t.Errorf("%s: cloud hash %08x != the hood's %08x", c.Step, srv.StateHash(), leader.StateHash())
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
		_, err = out.WriteSnapshot(snap)
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
