package gossip

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	t.Fatalf("metric %s not in registry snapshot", name)
	return 0
}

// TestNegativeCountsRefusedAtEveryIngest: the binary codec's zig-zag
// varints carry negative ints, so a census like [-1, 2, 0, ...] decodes
// fine; folded, it would put a negative share into the game state. The
// kernel's one shape check refuses it with ErrBadCensus at every entry
// point — cloud single, batch and digest, a shard's session, gossip peer —
// before anything reaches a barrier, let alone Fold.Apply. (The test lives here
// because gossip is the one package that may import both other owners.)
func TestNegativeCountsRefusedAtEveryIngest(t *testing.T) {
	nodes, agg, teardown := hood(t, 2, 100, nil)
	defer teardown()
	node := nodes[0]
	upstream := &edge.BatchLink{Dialer: &transport.Dialer{
		Dial: func() (transport.Conn, error) { return nil, errors.New("no aggregator in this test") },
	}}
	c, err := shard.NewCoordinator(shard.Config{Regions: []int{0, 1}, K: 8, Upstream: upstream})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shardNet := transport.NewInprocNetwork()
	l, err := shardNet.Listen("shard")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go c.Serve(l)
	conn, err := shardNet.Dial("shard")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good := transport.Census{Edge: 0, Round: 0, Counts: counts(0, 0)}
	bad := transport.Census{Edge: 1, Round: 0, Counts: []int{-1, 2, 0, 0, 0, 0, 0, 0}}
	both := []transport.Census{good, bad}
	entries := []struct {
		name   string
		submit func() error
	}{
		{"cloud.Submit", func() error { _, err := agg.Submit(bad); return err }},
		{"cloud.SubmitBatch", func() error {
			_, err := agg.SubmitBatch(transport.CensusBatch{Round: 0, Censuses: both})
			return err
		}},
		{"cloud.SubmitDigest", func() error {
			_, err := agg.SubmitDigest(transport.Digest{Neighborhood: 0, Of: 1, Members: []int{0, 1},
				Rounds: []transport.DigestRound{{Round: 0, Censuses: both}}})
			return err
		}},
		{"shard.ServeSession", func() error {
			_, err := session.ReportCensusWith(conn, &bad, 5*time.Second, nil)
			var rej *session.RejectedError
			if errors.As(err, &rej) && strings.Contains(rej.Reason, cloud.ErrBadCensus.Error()) {
				return cloud.ErrBadCensus // the refusal crossed the wire as the ack's text
			}
			return err
		}},
		{"gossip.SubmitPeer", func() error { return node.SubmitPeer(bad) }},
	}
	cloudHash, hoodHash := agg.StateHash(), node.StateHash()
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			errc := make(chan error, 1)
			go func() { errc <- e.submit() }()
			select {
			case err := <-errc:
				if !errors.Is(err, cloud.ErrBadCensus) {
					t.Fatalf("negative count: err = %v, want ErrBadCensus", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("negative count accepted: the census is waiting on a round barrier")
			}
			if agg.StateHash() != cloudHash || node.StateHash() != hoodHash {
				t.Error("a refused census changed a fold's state")
			}
			if agg.Latest() != -1 || c.Latest() != -1 || node.Latest() != -1 {
				t.Errorf("a refused census completed a round: latest = %d/%d/%d", agg.Latest(), c.Latest(), node.Latest())
			}
		})
	}
	if n := counterValue(t, agg.Registry(), "consensus_decode_failures_total"); n != 3 {
		t.Errorf("consensus_decode_failures_total = %v, want 3 (one per cloud entry point)", n)
	}
	if n := counterValue(t, c.Registry(), "shard_decode_failures_total"); n != 1 {
		t.Errorf("shard_decode_failures_total = %v, want 1", n)
	}
}

// TestPeerLinkAcksUnexpectedKind: a frame of a kind a peer link does not
// carry is acked back with an error, and the link goes on: the census after
// it on the same conn is acked.
func TestPeerLinkAcksUnexpectedKind(t *testing.T) {
	nodes, _, teardown := hood(t, 2, 100, nil)
	defer teardown()
	conn, err := nodes[0].cfg.PeerDial(0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := session.Wrap(conn)
	err = sess.Notify(transport.KindRatio, &transport.Ratio{Round: 1, X: 0.5}, 5*time.Second)
	var rej *session.RejectedError
	if !errors.As(err, &rej) || !strings.Contains(rej.Reason, "unexpected ratio frame") {
		t.Fatalf("a ratio on a peer link: %v, want an unexpected-kind refusal", err)
	}
	census := transport.Census{Edge: 1, Round: 0, Counts: counts(1, 0)}
	if err := sess.Notify(transport.KindCensus, &census, 5*time.Second); err != nil {
		t.Fatalf("the census after it: %v", err)
	}
}
