package edge

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// testVehicle is a hand-driven vehicle session: the test decides what it
// sends and asserts what comes back, frame by frame.
type testVehicle struct {
	t    *testing.T
	id   int
	conn transport.Conn
}

// registerVehicle dials, sends the hello and takes the registration ack.
func registerVehicle(t *testing.T, dial func() (transport.Conn, error), id int) *testVehicle {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	v := &testVehicle{t: t, id: id, conn: conn}
	v.send(transport.KindHello, transport.Hello{Vehicle: id})
	if reason := v.recvAck(); reason != "" {
		t.Fatalf("vehicle %d: registration refused: %s", id, reason)
	}
	return v
}

func (v *testVehicle) send(kind transport.Kind, body interface{}) {
	v.t.Helper()
	m, err := transport.Encode(kind, body)
	if err != nil {
		v.t.Fatal(err)
	}
	if err := v.conn.Send(m); err != nil {
		v.t.Fatalf("vehicle %d: sending %s: %v", v.id, kind, err)
	}
}

// recv takes the next frame, which must be of the given kind.
func (v *testVehicle) recv(kind transport.Kind, out interface{}) {
	v.t.Helper()
	m, err := v.conn.Recv()
	if err != nil {
		v.t.Fatalf("vehicle %d: waiting for %s: %v", v.id, kind, err)
	}
	if err := transport.Decode(m, kind, out); err != nil {
		v.t.Fatalf("vehicle %d: %v", v.id, err)
	}
}

func (v *testVehicle) recvAck() string {
	v.t.Helper()
	var ack transport.Ack
	v.recv(transport.KindAck, &ack)
	return ack.Err
}

func (v *testVehicle) recvPolicy(round int) {
	v.t.Helper()
	var pol transport.Policy
	v.recv(transport.KindPolicy, &pol)
	if pol.Round != round || pol.X != 1 { // runRound's ratio
		v.t.Fatalf("vehicle %d: policy = %+v, want round %d at x = 1", v.id, pol, round)
	}
}

// upload shares the given modalities under the decision.
func (v *testVehicle) upload(round, decision int, modalities ...sensor.Type) {
	v.t.Helper()
	v.send(transport.KindUpload, transport.Upload{Round: round, Decision: decision, Share: sensor.MaskOf(modalities...)})
}

// startServer serves an edge on an in-process listener and returns it with
// the dial function of its vehicles.
func startServer(t *testing.T) (*Server, func() (transport.Conn, error)) {
	t.Helper()
	net := transport.NewInprocNetwork()
	l, err := net.Listen("edge")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return srv, func() (transport.Conn, error) { return net.Dial("edge") }
}

// runRound starts RunRound on its own goroutine and returns the channel its
// census arrives on (nil after a failure, which is reported).
func runRound(t *testing.T, srv *Server, round int, timeout time.Duration) <-chan []int {
	t.Helper()
	done := make(chan []int, 1)
	go func() {
		census, err := srv.RunRound(round, 1, timeout)
		if err != nil {
			t.Errorf("round %d: %v", round, err)
		}
		done <- census
	}()
	return done
}

func awaitVehicles(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.NumVehicles() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d vehicles registered, want %d", srv.NumVehicles(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefusedUploadIsNacked: an upload the policy refuses — a modality the
// decision does not share, a decision the lattice does not have — and a frame
// of a kind the edge does not serve are answered with an ack carrying the
// reason and are not counted, while the vehicle beside it, whose upload is
// good, hears nothing but its delivery.
func TestRefusedUploadIsNacked(t *testing.T) {
	srv, dial := startServer(t)
	bad := registerVehicle(t, dial, 1)
	good := registerVehicle(t, dial, 2)
	awaitVehicles(t, srv, 2)

	census := runRound(t, srv, 1, 5*time.Second)
	bad.recvPolicy(1)
	good.recvPolicy(1)

	bad.upload(1, 7, sensor.Radar, sensor.Camera) // decision 7 shares radar only
	if reason := bad.recvAck(); !strings.Contains(reason, "not covered by decision 7") {
		t.Errorf("smuggled modality: ack = %q", reason)
	}
	bad.upload(1, 99)
	if reason := bad.recvAck(); !strings.Contains(reason, "upload from vehicle 1") {
		t.Errorf("unknown decision: ack = %q", reason)
	}
	bad.send(transport.KindCensus, transport.Census{Edge: 0, Round: 1, Counts: make([]int, 8)})
	if reason := bad.recvAck(); reason != "unexpected message kind census" {
		t.Errorf("unexpected kind: ack = %q", reason)
	}
	if n := srv.dist.NumUploads(); n != 0 {
		t.Errorf("%d uploads counted after three refusals", n)
	}

	// Vehicle 1 settles for sharing nothing, which lets the round finish.
	good.upload(1, 7, sensor.Radar)
	bad.upload(1, 8)
	if counts := <-census; total(counts) != 2 || counts[6] != 1 || counts[7] != 1 {
		t.Errorf("census = %v, want one vehicle on decision 7 and one on 8", counts)
	}
	for _, v := range []*testVehicle{good, bad} {
		var del transport.Delivery
		v.recv(transport.KindDelivery, &del)
		if del.Round != 1 {
			t.Errorf("vehicle %d: delivery for round %d, want 1", v.id, del.Round)
		}
	}
}

// TestStaleUploadIsSilent: an upload for a round that is over is dropped
// without an ack of either kind, so the frame after it on the wire is the
// current round's delivery.
func TestStaleUploadIsSilent(t *testing.T) {
	srv, dial := startServer(t)
	v := registerVehicle(t, dial, 1)
	awaitVehicles(t, srv, 1)

	census := runRound(t, srv, 5, 5*time.Second)
	v.recvPolicy(5)
	v.upload(4, 1, sensor.Camera) // a delayed policy's upload: stale
	v.upload(5, 7, sensor.Radar)
	var del transport.Delivery
	v.recv(transport.KindDelivery, &del)
	if del.Round != 5 {
		t.Errorf("delivery for round %d, want 5", del.Round)
	}
	if counts := <-census; total(counts) != 1 || counts[6] != 1 {
		t.Errorf("census = %v, want the round-5 upload (decision 7) alone", counts)
	}
}

// TestLeftoverSignalDoesNotEndNextRoundEarly: a round that timed out can
// still be completed by a straggler before the next one begins, which leaves
// the "all uploads in" signal behind. The next round must treat it as a
// reason to count again, not as its own completion.
func TestLeftoverSignalDoesNotEndNextRoundEarly(t *testing.T) {
	srv, dial := startServer(t)
	prompt := registerVehicle(t, dial, 1)
	late := registerVehicle(t, dial, 2)
	awaitVehicles(t, srv, 2)

	census := runRound(t, srv, 1, 250*time.Millisecond)
	prompt.recvPolicy(1)
	late.recvPolicy(1)
	prompt.upload(1, 8)
	if counts := <-census; total(counts) != 1 {
		t.Fatalf("round 1 census = %v, want the prompt vehicle alone", counts)
	}
	var del transport.Delivery
	prompt.recv(transport.KindDelivery, &del)
	// Round 1 is still the distributor's round, so this brings its count up
	// to the target after the wait has gone.
	late.upload(1, 8)
	deadline := time.Now().Add(5 * time.Second)
	for srv.dist.NumUploads() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("the straggler's upload was not counted")
		}
		time.Sleep(time.Millisecond)
	}

	census = runRound(t, srv, 2, 5*time.Second)
	prompt.recvPolicy(2)
	late.recvPolicy(2)
	prompt.upload(2, 8)
	select {
	case counts := <-census:
		t.Fatalf("round 2 ended with census %v before its second upload", counts)
	case <-time.After(100 * time.Millisecond):
	}
	late.upload(2, 8)
	if counts := <-census; total(counts) != 2 {
		t.Errorf("round 2 census = %v, want both vehicles", counts)
	}
}

// TestRecvBodyValidUntilNextRecv: an upload received over TCP is decoded
// into the conn's scratch and the next Recv decodes over it; the upload
// Decode copied out of the first one, and what the Distributor took from it,
// must not change with it.
func TestRecvBodyValidUntilNextRecv(t *testing.T) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	v := &testVehicle{t: t, id: 1, conn: client}
	v.upload(3, 7, sensor.Radar)
	v.upload(3, 1, sensor.Camera, sensor.LiDAR, sensor.Radar) // same wire, so same scratch
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(3, 1); err != nil {
		t.Fatal(err)
	}
	var first, second transport.Upload
	for i, up := range []*transport.Upload{&first, &second} {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.Decode(m, transport.KindUpload, up); err != nil {
			t.Fatal(err)
		}
		up.Vehicle = i + 1 // as an edge does from each session's hello
		if err := d.AddUpload(*up); err != nil {
			t.Fatal(err)
		}
	}
	if first.Decision != 7 || first.Share != sensor.MaskOf(sensor.Radar) {
		t.Fatalf("the first upload reads %+v after the next Recv", first)
	}
	// x = 1: vehicle 2, on decision 1, is delivered vehicle 1's radar item.
	want := []transport.Item{{Owner: 1, Modality: sensor.Radar}}
	if got := d.Distribute()[2]; !reflect.DeepEqual(got, want) {
		t.Fatalf("vehicle 2 delivery = %+v, want %+v", got, want)
	}
}

// TestUploadCountsForItsSession: an upload counts for the vehicle its
// session registered, whatever vehicle its body names. One session's uploads
// naming an unregistered id and a registered neighbour neither add a phantom
// vehicle to the round (which would end its wait early) nor replace the
// neighbour's upload: the census counts the two registered vehicles, one
// decision each.
func TestUploadCountsForItsSession(t *testing.T) {
	srv, dial := startServer(t)
	a := registerVehicle(t, dial, 1)
	b := registerVehicle(t, dial, 2)
	awaitVehicles(t, srv, 2)

	census := runRound(t, srv, 1, 5*time.Second)
	a.recvPolicy(1)
	b.recvPolicy(1)
	a.send(transport.KindUpload, transport.Upload{Vehicle: 99, Round: 1, Decision: 2})
	a.send(transport.KindUpload, transport.Upload{Vehicle: 2, Round: 1, Decision: 3})
	a.send(transport.KindUpload, transport.Upload{Vehicle: 1, Round: 1, Decision: 7})
	a.send(transport.KindUpload, transport.Upload{Vehicle: 1, Round: 1, Decision: 99})
	// The refusal comes after the three uploads before it were handled.
	if reason := a.recvAck(); reason == "" {
		t.Fatal("an upload on an unknown decision was acked without a reason")
	}
	b.send(transport.KindUpload, transport.Upload{Vehicle: 2, Round: 1, Decision: 8})
	if counts := <-census; total(counts) != 2 || counts[6] != 1 || counts[7] != 1 {
		t.Errorf("census = %v, want vehicle 1 on decision 7 and vehicle 2 on decision 8", counts)
	}
	for _, v := range []*testVehicle{a, b} {
		var del transport.Delivery
		v.recv(transport.KindDelivery, &del)
		if del.Round != 1 {
			t.Errorf("vehicle %d: delivery for round %d, want 1", v.id, del.Round)
		}
	}
}

// TestServerRoundsOverTCP drives three rounds over real TCP on the binary
// codec, where every session's uploads are decoded into one reused body. In
// each round two vehicles follow their upload with frames that overwrite
// that body — a stale upload sharing radar alone, then a refused one whose
// nack tells them the server has decoded all three — before the third
// vehicle's upload lets the round distribute. Round r's deliveries must hold
// round r's items and nothing else: the other two vehicles' full runs.
func TestServerRoundsOverTCP(t *testing.T) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Close()
		l.Close()
	})
	dial := func() (transport.Conn, error) {
		return transport.DialTCP(l.Addr())
	}
	vehicles := []*testVehicle{registerVehicle(t, dial, 1), registerVehicle(t, dial, 2), registerVehicle(t, dial, 3)}
	awaitVehicles(t, srv, len(vehicles))

	all := sensor.AllTypes()
	for round := 1; round <= 3; round++ {
		census := runRound(t, srv, round, 5*time.Second)
		for _, v := range vehicles {
			v.recvPolicy(round)
		}
		for _, v := range vehicles[:2] {
			v.upload(round, 1, all...)
			v.upload(round-1, 7, sensor.Radar) // stale: dropped in silence
			v.upload(round, 8, sensor.Camera)  // decision 8 shares nothing: refused
			if reason := v.recvAck(); reason == "" {
				t.Fatalf("round %d vehicle %d: refused upload acked without a reason", round, v.id)
			}
		}
		last := vehicles[2]
		last.upload(round, 1, all...)
		if counts := <-census; counts[0] != 3 {
			t.Fatalf("round %d census = %v, want three vehicles on decision 1", round, counts)
		}
		for _, v := range vehicles {
			var del transport.Delivery
			v.recv(transport.KindDelivery, &del)
			var want []transport.Item
			for _, other := range vehicles {
				if other != v {
					want = transport.AppendRun(want, other.id, sensor.MaskAll)
				}
			}
			if del.Round != round || !reflect.DeepEqual(del.Items, want) {
				t.Errorf("round %d vehicle %d: delivery for round %d of %+v, want %+v",
					round, v.id, del.Round, del.Items, want)
			}
		}
	}
}
