package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/policy"
	"repro/internal/transport"
)

// ringGraph is an m-region ring: every region leaks to its two neighbours.
type ringGraph struct{ m int }

func (g ringGraph) M() int { return g.m }
func (g ringGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.6
	}
	if d := (i - j + g.m) % g.m; d == 1 || d == g.m-1 {
		return 0.2
	}
	return 0
}
func (g ringGraph) Neighbors(i int) []int { return []int{(i + g.m - 1) % g.m, (i + 1) % g.m} }

// newRingAggregator builds an aggregation-tier server over an m-region ring,
// with the relaxed field newAggregator uses.
func newRingAggregator(t *testing.T, m int) *cloud.Server {
	t.Helper()
	beta := make([]float64, m)
	for i := range beta {
		beta[i] = 3
	}
	model, err := game.NewModel(lattice.PaperPayoffs(), ringGraph{m}, beta)
	if err != nil {
		t.Fatal(err)
	}
	field, err := policy.NewUniformField(m, []float64{0.7, 0, 0, 0, 0, 0, 0, 0}, 0.1)
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
	srv, err := cloud.NewServer(fds, game.NewUniformState(m, model.K(), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// startShard serves a coordinator owning regions on the in-process network
// under name, forwarding to the aggregator at "agg".
func startShard(t *testing.T, net *transport.InprocNetwork, id int, name string, regions []int) *Coordinator {
	t.Helper()
	upstream := batchLink(net, id, "agg")
	c, err := NewCoordinator(Config{ID: id, Regions: regions, K: 8, Upstream: upstream, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)
	t.Cleanup(func() {
		l.Close()
		c.Close()
		upstream.Close()
	})
	return c
}

func batchLink(net *transport.InprocNetwork, id int, addr string) *edge.BatchLink {
	return &edge.BatchLink{
		Shard: id,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial(addr) },
			Seed:  int64(id) + 1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 5 * time.Second,
	}
}

// TestRewindCorrectionsReachEveryDownstreamRegion runs a rewind's fan-out end
// to end over the wire format: an aggregator, two shards, and under each one
// batching link that reports for the shard's whole group of four regions. A
// differing late census for region 1 rewinds the aggregator, and every other
// region — the submitter's shard-mates as much as the other shard's four —
// must reach its downstream link's OnCorrection with the aggregator's
// post-rewind ratio and sequence, in exactly one frame per link.
func TestRewindCorrectionsReachEveryDownstreamRegion(t *testing.T) {
	const m, submitter = 8, 1
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	net := transport.NewInprocNetwork()
	net.Serialize = true
	agg := newRingAggregator(t, m)
	agg.SetFixedLag(8)
	startAggregator(t, net, "agg", agg)

	var mu sync.Mutex
	got := make([][]transport.RatioCorrection, len(groups))
	links := make([]*edge.BatchLink, len(groups))
	for s, regions := range groups {
		name := fmt.Sprintf("shard%d", s)
		startShard(t, net, s, name, regions)
		links[s] = batchLink(net, 10+s, name)
		links[s].OnCorrection = func(rc transport.RatioCorrection) {
			mu.Lock()
			got[s] = append(got[s], rc)
			mu.Unlock()
		}
		t.Cleanup(func() { links[s].Close() })
	}
	// runRound reports every region's census for round through its group's
	// link, both links at once.
	runRound := func(round int) {
		t.Helper()
		var wg sync.WaitGroup
		for s, regions := range groups {
			censuses := make([]transport.Census, len(regions))
			for i, r := range regions {
				censuses[i] = transport.Census{Edge: r, Round: round, Counts: []int{5 + r, 1, 0, round, 1, 0, 1, 0}}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := links[s].Report(round, censuses); err != nil {
					t.Errorf("round %d through shard %d: %v", round, s, err)
				}
			}()
		}
		wg.Wait()
	}

	runRound(0)
	before := agg.State().X
	late := []transport.Census{{Edge: submitter, Round: 0, Counts: []int{0, 0, 9, 0, 0, 0, 0, 6}}}
	if _, err := links[0].Report(0, late); err != nil {
		t.Fatalf("late census: %v", err)
	}
	if n := metricValue(t, agg.Registry(), "consensus_rewinds_total"); n != 1 {
		t.Fatalf("consensus_rewinds_total = %v, want the late census to rewind once", n)
	}
	corrected := agg.State().X
	if reflect.DeepEqual(before, corrected) {
		t.Fatal("the rewind left every ratio where it was; the delivery check would be vacuous")
	}

	// A correction is pushed beside the replies, from a goroutine of its own,
	// and surfaces on a link during its next exchange, one hop per exchange:
	// keep the rounds going until both links have heard, then one more to
	// catch a second frame.
	delivered := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[0]) > 0 && len(got[1]) > 0
	}
	round := 1
	for patience := time.Now().Add(10 * time.Second); !delivered() && time.Now().Before(patience); round++ {
		runRound(round)
	}
	runRound(round)

	for s, regions := range groups {
		want := transport.RatioCorrection{Round: 0, Seq: 1}
		for _, r := range regions {
			if r != submitter {
				want.Edges = append(want.Edges, r)
				want.X = append(want.X, corrected[r])
			}
		}
		mu.Lock()
		if len(got[s]) != 1 || !reflect.DeepEqual(got[s][0], want) {
			t.Errorf("link under shard %d was handed %+v, want exactly %+v", s, got[s], want)
		}
		mu.Unlock()
	}
}

// TestRouteCorrectionAllocs pins a shard's relay of one aggregator frame to
// one downstream session at a handful of heap objects whatever the group's
// size: the regrouped frame, its two slices and the send. 64 regions and 512
// cost the same.
func TestRouteCorrectionAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	relay := func(m int) float64 {
		net := transport.NewInprocNetwork()
		startAggregator(t, net, "agg", newRingAggregator(t, m))
		rc := transport.RatioCorrection{Round: 0, Seq: 1, Edges: make([]int, m), X: make([]float64, m)}
		batch := transport.CensusBatch{Censuses: make([]transport.Census, m)}
		for r := range rc.Edges {
			rc.Edges[r], rc.X[r] = r, 0.25
			batch.Censuses[r] = transport.Census{Edge: r, Counts: []int{5, 1, 0, 0, 1, 0, 1, 0}}
		}
		c := startShard(t, net, 0, "shard", rc.Edges)
		// The downstream session is a bare conn: it reports the group once, so
		// the shard knows where the regions report, and then only drains.
		down, err := net.Dial("shard")
		if err != nil {
			t.Fatal(err)
		}
		defer down.Close()
		frame, _ := transport.Encode(transport.KindCensusBatch, batch)
		if err := down.Send(frame); err != nil {
			t.Fatal(err)
		}
		if reply, err := down.Recv(); err != nil || reply.Kind != transport.KindRatioBatch {
			t.Fatalf("round 0 reply = %s, %v", reply.Kind, err)
		}
		return testing.AllocsPerRun(20, func() {
			rc.Seq++
			c.routeCorrection(rc)
			if relayed, err := down.Recv(); err != nil || relayed.Kind != transport.KindRatioCorrection {
				t.Fatalf("relayed frame = %s, %v", relayed.Kind, err)
			}
		})
	}
	small, large := relay(64), relay(512)
	if large != small || large > 6 {
		t.Errorf("relay to one session: %.0f allocs at 512 regions, %.0f at 64; want equal and at most 6", large, small)
	}
}
