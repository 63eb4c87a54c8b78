package gossip

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/transport"
)

// A digest ack covers only rounds the cloud holds durably. Hood 0 escalates
// round 0 to a cloud that folds two neighborhoods, which acks it while the
// round still waits for hood 1; the cloud is killed — closed without a drain
// — and restarted on its state directory. Hood 0 must still hold round 0 and
// send it again, so the restarted cloud folds both hoods' censuses of rounds
// 0 and 1, as a cloud that never crashed does.
func TestDigestAckCoversOnlyDurableRounds(t *testing.T) {
	netw := transport.NewInprocNetwork()
	dir := t.TempDir()
	var cloudName atomic.Value
	startCloud := func(name string) (*cloud.Server, func()) {
		srv := testCloud(t, 2)
		if err := srv.Open(dir); err != nil {
			t.Fatal(err)
		}
		l, err := netw.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		cloudName.Store(name)
		t.Cleanup(srv.Close)
		return srv, func() { l.Close(); srv.Close() }
	}
	_, kill := startCloud("cloud-a")

	hoods := make([]*Node, 2)
	for h := range hoods {
		node, err := NewNode(Config{
			Edge: h, Members: []int{h}, Neighborhood: h, Of: 2,
			EscalateEvery: 1,
			Deadline:      2 * time.Second,
			ReplyTimeout:  5 * time.Second,
			Fold:          testFold(t, 2),
			PeerDial:      func(int) (transport.Conn, error) { return nil, fmt.Errorf("no peers") },
			CloudDial:     func() (transport.Conn, error) { return netw.Dial(cloudName.Load().(string)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		hoods[h] = node
	}
	round := func(h, r int) {
		t.Helper()
		if _, err := hoods[h].LocalRound(r, counts(h, r)); err != nil {
			t.Fatalf("hood %d round %d: %v", h, r, err)
		}
	}
	round(0, 0) // escalated and acked; the cloud waits for hood 1's round 0
	kill()
	srv, _ := startCloud("cloud-b")
	round(1, 0)
	round(0, 1)
	round(1, 1)

	ref := testCloud(t, 2)
	defer ref.Close()
	for h := 0; h < 2; h++ {
		d := transport.Digest{Neighborhood: h, Of: 2, Members: []int{h}}
		for r := 0; r < 2; r++ {
			d.Rounds = append(d.Rounds, transport.DigestRound{Round: r, Censuses: []transport.Census{{Edge: h, Round: r, Counts: counts(h, r)}}})
		}
		if _, err := ref.SubmitDigest(d); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Latest() != 1 || srv.StateHash() != ref.StateHash() {
		t.Fatalf("the restarted cloud recovers through round %d with hash %08x; a cloud that never crashed folds rounds 0-1 to %08x", srv.Latest(), srv.StateHash(), ref.StateHash())
	}
	// Hood 0's round 1 waited on hood 1 when it was acked: its next
	// escalation sends it again, which the cloud skips and acknowledges.
	if n := hoods[0].Pending(); n != 1 {
		t.Errorf("hood 0 holds %d rounds, want round 1 it escalated before hood 1 did", n)
	}
	if err := hoods[0].Flush(); err != nil {
		t.Fatal(err)
	}
	for h, n := range hoods {
		if n.Pending() != 0 {
			t.Errorf("hood %d still holds %d rounds", h, n.Pending())
		}
	}
}
