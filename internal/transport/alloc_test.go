package transport

import (
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/obs"
)

// TestBinaryEncodeHotPathZeroAlloc pins the per-frame heap cost of the two
// messages every consensus round sends (census up, ratio down) at zero: the
// encoder copies a typed body out of the message without boxing it again,
// and the destination buffer is reused the way tcpConn.Send reuses its own.
// BenchmarkEncodeCensus reports the same number as allocs/op; this test
// makes the regression a hard failure instead of a bench diff.
func TestBinaryEncodeHotPathZeroAlloc(t *testing.T) {
	census, err := Encode(KindCensus, Census{Edge: 3, Round: 117, Counts: []int{12, 40, 7, 3, 0, 9, 1, 28}})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := Encode(KindRatio, Ratio{Round: 118, X: 0.7125})
	if err != nil {
		t.Fatal(err)
	}
	encodesWithoutAlloc(t, census, ratio)
}

// encodesWithoutAlloc fails for each message whose encode into a buffer that
// already has the room allocates.
func encodesWithoutAlloc(t *testing.T, msgs ...Message) {
	t.Helper()
	buf := make([]byte, 0, 4096)
	for _, m := range msgs {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := Binary.AppendEncode(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("binary %s encode: %.1f allocs/op, want 0", m.Kind, allocs)
		}
	}
}

// TestBatchEncodeAllocs pins the same for the tier's frames — a shard's
// census batch, the aggregator's ratio batch, a rewind's correction: the
// encoder takes each body out of the message typed, as it does a census.
func TestBatchEncodeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	batch := CensusBatch{Shard: 1, Round: 117}
	ratios := RatioBatch{Round: 118}
	for e := 0; e < 64; e++ {
		batch.Censuses = append(batch.Censuses, Census{Edge: e, Round: 117, Counts: []int{12, 40, 7, 3, 0, 9, 1, 28}})
		ratios.Edges = append(ratios.Edges, e)
		ratios.X = append(ratios.X, 0.7125)
	}
	encodesWithoutAlloc(t,
		mustEncode(t, KindCensusBatch, batch),
		mustEncode(t, KindRatioBatch, &ratios),
		mustEncode(t, KindRatioCorrection, &RatioCorrection{Round: 110, Seq: 9, Edges: ratios.Edges, X: ratios.X}))
}

// TestTCPVehiclePlaneAllocs pins the heap cost of moving the four frames of a
// vehicle-round (policy, upload, delivery, ack) over a warmed TCP conn at
// zero, Send and Recv together: the frame buffer is pooled or the conn's
// own, the bodies are the conn's decode scratch, and the wire metrics, when
// on, are unlabeled instruments found with one load. Send and Recv run in
// turn on one goroutine — a frame fits the loopback socket buffer many times
// over — so the count covers both ends.
func TestTCPVehiclePlaneAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			Instrument(obs.New())
			defer Instrument(nil)
		}
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := acceptOne(t, l)
		client, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		msgs := vehiclePlaneMessages(t)
		if err := client.Send(msgs[0]); err != nil { // carries the codec declaration
			t.Fatal(err)
		}
		server := <-accepted
		if server == nil {
			t.Fatal("accept failed")
		}
		defer server.Close()
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			allocs := testing.AllocsPerRun(200, func() {
				if err := client.Send(m); err != nil {
					t.Fatal(err)
				}
				got, err := server.Recv()
				if err != nil || got.Kind != m.Kind {
					t.Fatalf("Recv = %s, %v, want %s", got.Kind, err, m.Kind)
				}
			})
			if allocs != 0 {
				t.Errorf("instrumented=%v: %s Send+Recv: %.1f allocs/op, want 0", instrumented, m.Kind, allocs)
			}
		}
	}
}

// TestTCPBatchRecvAllocs: a 512-census K=9 batch — a shard's forward —
// received on a TCP conn after the first decodes into the conn's scratch:
// the body, the census list and the counts the first one grew, and the
// frame buffer from the pool. Send and Recv run in turn on one goroutine,
// as in TestTCPVehiclePlaneAllocs, with the wire metrics off and on.
func TestTCPBatchRecvAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	batch := mustEncode(t, KindCensusBatch, uniformBatch(512, 9))
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			Instrument(obs.New())
			defer Instrument(nil)
		}
		client, server := tcpPair(t)
		defer client.Close()
		defer server.Close()
		var got CensusBatch
		allocs := testing.AllocsPerRun(50, func() { // its warm-up run is the first batch
			if err := client.Send(batch); err != nil {
				t.Fatal(err)
			}
			m, err := server.Recv()
			if err == nil {
				err = Decode(m, KindCensusBatch, &got)
			}
			if err != nil || len(got.Censuses) != 512 {
				t.Fatalf("Recv = %d censuses, %v", len(got.Censuses), err)
			}
		})
		if allocs != 0 {
			t.Errorf("instrumented=%v: a second census batch Send+Recv: %.1f allocs/op, want 0", instrumented, allocs)
		}
	}
}

// TestRecvTimeoutAllocs pins a reply wait at zero: over a warmed TCP conn a
// ratio reply is sent, waited for with RecvTimeout and decoded without a heap
// object — the bound rides the socket's read deadline, and the body is the
// conn's own.
func TestRecvTimeoutAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	client, server := tcpPair(t)
	defer client.Close()
	defer server.Close()
	reply := mustEncode(t, KindRatio, &Ratio{Round: 118, X: 0.7125})
	var ratio Ratio
	allocs := testing.AllocsPerRun(200, func() {
		if err := server.Send(reply); err != nil {
			t.Fatal(err)
		}
		m, err := RecvTimeout(client, 30*time.Second)
		if err == nil {
			err = Decode(m, KindRatio, &ratio)
		}
		if err != nil || ratio.X != 0.7125 {
			t.Fatalf("RecvTimeout = %+v, %v", ratio, err)
		}
	})
	if allocs != 0 {
		t.Errorf("ratio reply Send+RecvTimeout: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeAllocs pins Decode into a receiver's local body at zero: the
// census a gossip peer folds and the ack a notifier reads stay on the
// receiver's stack, because Decode keeps nothing of its target.
func TestDecodeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	census := mustEncode(t, KindCensus, &Census{Edge: 3, Round: 117, Counts: []int{12, 40, 7}})
	ack := mustEncode(t, KindAck, &Ack{})
	allocs := testing.AllocsPerRun(200, func() {
		var c Census
		var a Ack
		if err := Decode(census, KindCensus, &c); err != nil || c.Round != 117 {
			t.Fatalf("census = %+v, %v", c, err)
		}
		if err := Decode(ack, KindAck, &a); err != nil || a.Err != "" {
			t.Fatalf("ack = %+v, %v", a, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Decode into a local Census and Ack: %.1f allocs/op, want 0", allocs)
	}
}
