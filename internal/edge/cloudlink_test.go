package edge

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestCloudLinkResubmitsAfterDrop: when the cloud connection dies before the
// ratio reply arrives, the link redials and re-submits the same round's
// census, and skips stale replies once reconnected.
func TestCloudLinkResubmitsAfterDrop(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			// Session 1: swallow the census and drop the link.
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
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return err
			}
			stale, err := transport.Encode(transport.KindRatio, transport.Ratio{Round: census.Round, X: 0.1})
			if err != nil {
				return err
			}
			if err := c2.Send(stale); err != nil {
				return err
			}
			good, err := transport.Encode(transport.KindRatio, transport.Ratio{Round: census.Round + 1, X: 0.75})
			if err != nil {
				return err
			}
			return c2.Send(good)
		}()
	}()

	link := &CloudLink{
		Edge: 0,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial("cloud") },
			Seed:  1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 2 * time.Second,
	}
	defer link.Close()

	x, err := link.Report(3, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if x != 0.75 {
		t.Errorf("ratio = %f, want 0.75 (the non-stale reply)", x)
	}
	if got := link.Obs.Counter("edge_cloud_redials_total", "").Value(); got != 1 {
		t.Errorf("edge_cloud_redials_total = %d, want 1", got)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("fake cloud: %v", err)
	}
}

// TestCloudLinkSurfacesProtocolErrors: an error ack from the cloud is a
// protocol failure, not a link failure — no retry, no redial.
func TestCloudLinkSurfacesProtocolErrors(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Recv(); err != nil {
			return
		}
		m, err := transport.Encode(transport.KindAck, transport.Ack{Err: "census from unknown edge 9"})
		if err != nil {
			return
		}
		_ = c.Send(m)
	}()

	link := &CloudLink{
		Edge: 9,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial("cloud") },
			Seed:  1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 2 * time.Second,
	}
	defer link.Close()
	if _, err := link.Report(0, []int{1}); err == nil {
		t.Fatal("rejected census must surface an error")
	}
	if got := link.Obs.Counter("edge_cloud_redials_total", "").Value(); got != 0 {
		t.Errorf("edge_cloud_redials_total = %d, want 0 for a protocol error", got)
	}
}

// TestCloudLinkAdoptsRatioCorrections: correction frames pushed by the cloud
// during a census exchange are adopted monotonically — redelivered and
// reordered sequences are dropped — with this region's ratio picked out of
// each frame's set, while the exchange still completes. A frame that does not
// carry the region is not the link's: it is ignored and does not advance the
// sequence, so a lower-numbered frame that does carry it is still adopted.
func TestCloudLinkAdoptsRatioCorrections(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
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
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return err
			}
			for _, rc := range []transport.RatioCorrection{
				{Round: 6, Seq: 6, Edges: []int{1, 3}, X: []float64{0.6, 0.7}},          // without region 2: ignored, seq stays
				{Round: 6, Seq: 5, Edges: []int{1, 2, 3}, X: []float64{0.6, 0.61, 0.7}}, // adopted
				{Round: 6, Seq: 5, Edges: []int{1, 2, 3}, X: []float64{0.6, 0.61, 0.7}}, // redelivered: dropped
				{Round: 5, Seq: 3, Edges: []int{2}, X: []float64{0.40}},                 // reordered stale seq: dropped
				{Round: 7, Seq: 8, Edges: []int{0, 2}, X: []float64{0.5, 0.66}},         // adopted
			} {
				f, err := transport.Encode(transport.KindRatioCorrection, rc)
				if err != nil {
					return err
				}
				if err := c.Send(f); err != nil {
					return err
				}
			}
			reply, err := transport.Encode(transport.KindRatio, transport.Ratio{Round: census.Round + 1, X: 0.8})
			if err != nil {
				return err
			}
			return c.Send(reply)
		}()
	}()

	type adoption struct {
		round int
		x     float64
	}
	var adopted []adoption
	link := &CloudLink{
		Edge: 2,
		Dialer: &transport.Dialer{
			Dial:  func() (transport.Conn, error) { return net.Dial("cloud") },
			Seed:  1,
			Sleep: func(time.Duration) {},
		},
		ReplyTimeout: 2 * time.Second,
		OnCorrection: func(round int, x float64) {
			adopted = append(adopted, adoption{round, x})
		},
	}
	defer link.Close()

	x, err := link.Report(7, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if x != 0.8 {
		t.Errorf("ratio = %f, want 0.8", x)
	}
	want := []adoption{{6, 0.61}, {7, 0.66}}
	if len(adopted) != len(want) {
		t.Fatalf("adopted %v, want %v", adopted, want)
	}
	for i, w := range want {
		if adopted[i] != w {
			t.Errorf("adoption %d = %v, want %v", i, adopted[i], w)
		}
	}
	if got := link.Obs.Counter("edge_ratio_corrections_total", "").Value(); got != 2 {
		t.Errorf("edge_ratio_corrections_total = %v, want 2", got)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("fake cloud: %v", err)
	}
}

// TestCloudLinkOutlastsClosingServer: a coordinator that is shutting down
// keeps its listener open for a moment, accepting and immediately dropping
// every connection. The dial succeeds each time, so the link must rest a
// backoff step between attempts — retrying instantly burns all of them in
// microseconds, long before the restarted server is there to answer.
func TestCloudLinkOutlastsClosingServer(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	go func() {
		serveAt := time.Now().Add(100 * time.Millisecond)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if time.Now().Before(serveAt) {
				_ = c.Close()
				continue
			}
			go func() {
				defer c.Close()
				m, err := c.Recv()
				if err != nil {
					return
				}
				var census transport.Census
				if transport.Decode(m, transport.KindCensus, &census) != nil {
					return
				}
				if reply, err := transport.Encode(transport.KindRatio, transport.Ratio{Round: census.Round + 1, X: 0.5}); err == nil {
					_ = c.Send(reply)
				}
			}()
		}
	}()

	link := &CloudLink{
		Edge:         0,
		Dialer:       &transport.Dialer{Dial: func() (transport.Conn, error) { return net.Dial("cloud") }, Seed: 1},
		ReplyTimeout: 2 * time.Second,
		Attempts:     5,
	}
	defer link.Close()
	x, err := link.Report(4, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("Report across a closing server: %v", err)
	}
	if x != 0.5 {
		t.Errorf("ratio = %f, want 0.5", x)
	}
}
