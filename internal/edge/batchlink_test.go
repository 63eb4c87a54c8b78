package edge

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestBatchLinkResubmitsAfterDrop: when the upstream connection dies before
// the RatioBatch reply arrives, the link redials and re-submits the same
// round's batch, skipping stale replies once reconnected.
func TestBatchLinkResubmitsAfterDrop(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("agg")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			// Session 1: swallow the batch and drop the link.
			c1, err := l.Accept()
			if err != nil {
				return err
			}
			if _, err := c1.Recv(); err != nil {
				return err
			}
			_ = c1.Close()

			// Session 2: answer the re-submission, preceded by a stale reply
			// the link must skip.
			c2, err := l.Accept()
			if err != nil {
				return err
			}
			defer c2.Close()
			m, err := c2.Recv()
			if err != nil {
				return err
			}
			var batch transport.CensusBatch
			if err := transport.Decode(m, transport.KindCensusBatch, &batch); err != nil {
				return err
			}
			if batch.Shard != 2 || len(batch.Censuses) != 2 {
				return nil // the assertion below fails on the zero reply
			}
			stale, err := transport.Encode(transport.KindRatioBatch,
				transport.RatioBatch{Round: batch.Round, Edges: []int{0, 1}, X: []float64{0.1, 0.1}})
			if err != nil {
				return err
			}
			if err := c2.Send(stale); err != nil {
				return err
			}
			good, err := transport.Encode(transport.KindRatioBatch,
				transport.RatioBatch{Round: batch.Round + 1, Edges: []int{0, 1}, X: []float64{0.75, 0.25}})
			if err != nil {
				return err
			}
			return c2.Send(good)
		}()
	}()

	link := &BatchLink{
		Shard: 2,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial("agg") },
			Seed:  1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 2 * time.Second,
	}
	defer link.Close()

	reply, err := link.Report(3, []transport.Census{
		{Edge: 0, Round: 3, Counts: []int{1, 2}},
		{Edge: 1, Round: 3, Counts: []int{3, 0}},
	})
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if reply.Round != 4 || len(reply.X) != 2 || reply.X[0] != 0.75 {
		t.Errorf("reply = %+v, want round 4 with the non-stale ratios", reply)
	}
	if got := link.Obs.Counter("edge_cloud_redials_total", "").Value(); got != 1 {
		t.Errorf("edge_cloud_redials_total = %d, want 1", got)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("fake aggregator: %v", err)
	}
}

// TestBatchLinkAdoptsRatioCorrections: corrections interleaved with a batch
// exchange are adopted monotonically by sequence, each frame's whole region
// set carried through to the callback under the coordinator's sequence.
func TestBatchLinkAdoptsRatioCorrections(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("agg")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			c, err := l.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			m, err := c.Recv()
			if err != nil {
				return err
			}
			var batch transport.CensusBatch
			if err := transport.Decode(m, transport.KindCensusBatch, &batch); err != nil {
				return err
			}
			for _, rc := range []transport.RatioCorrection{
				{Round: 6, Seq: 5, Edges: []int{5, 9}, X: []float64{0.61, 0.62}}, // adopted
				{Round: 6, Seq: 5, Edges: []int{5, 9}, X: []float64{0.61, 0.62}}, // redelivered: dropped
				{Round: 5, Seq: 3, Edges: []int{9}, X: []float64{0.40}},          // reordered stale seq: dropped
				{Round: 7, Seq: 8, Edges: []int{9}, X: []float64{0.66}},          // adopted
			} {
				f, err := transport.Encode(transport.KindRatioCorrection, rc)
				if err != nil {
					return err
				}
				if err := c.Send(f); err != nil {
					return err
				}
			}
			reply, err := transport.Encode(transport.KindRatioBatch,
				transport.RatioBatch{Round: batch.Round + 1, Edges: []int{5, 9}, X: []float64{0.7, 0.66}})
			if err != nil {
				return err
			}
			return c.Send(reply)
		}()
	}()

	var adopted []transport.RatioCorrection
	link := &BatchLink{
		Shard: 1,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial("agg") },
			Seed:  1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 2 * time.Second,
		OnCorrection: func(rc transport.RatioCorrection) {
			adopted = append(adopted, rc)
		},
	}
	defer link.Close()

	if _, err := link.Report(7, []transport.Census{
		{Edge: 5, Round: 7, Counts: []int{1}},
		{Edge: 9, Round: 7, Counts: []int{2}},
	}); err != nil {
		t.Fatalf("Report: %v", err)
	}
	want := []transport.RatioCorrection{
		{Round: 6, Seq: 5, Edges: []int{5, 9}, X: []float64{0.61, 0.62}},
		{Round: 7, Seq: 8, Edges: []int{9}, X: []float64{0.66}},
	}
	if !reflect.DeepEqual(adopted, want) {
		t.Errorf("adopted %+v, want %+v", adopted, want)
	}
	// The counter is in regions: two from the first frame, one from the last.
	if got := link.Obs.Counter("edge_ratio_corrections_total", "").Value(); got != 3 {
		t.Errorf("edge_ratio_corrections_total = %v, want 3", got)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("fake aggregator: %v", err)
	}
}
