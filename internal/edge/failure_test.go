package edge

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// scriptedVehicle is a minimal test client: it registers, then answers
// every Policy with an Upload, until stopped or disconnected.
type scriptedVehicle struct {
	id       int
	decision int
	conn     transport.Conn
	stop     chan struct{}
	done     sync.WaitGroup
}

func startScriptedVehicle(t *testing.T, net *transport.InprocNetwork, addr string, id, decision int) *scriptedVehicle {
	t.Helper()
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	v := &scriptedVehicle{id: id, decision: decision, conn: conn, stop: make(chan struct{})}
	hello, err := transport.Encode(transport.KindHello, transport.Hello{Vehicle: id})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // registration ack
		t.Fatal(err)
	}
	v.done.Add(1)
	go func() {
		defer v.done.Done()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if m.Kind != transport.KindPolicy {
				continue
			}
			var pol transport.Policy
			if err := transport.Decode(m, transport.KindPolicy, &pol); err != nil {
				return
			}
			var share sensor.Mask
			if v.decision == 7 {
				share = sensor.MaskOf(sensor.Radar)
			}
			up, err := transport.Encode(transport.KindUpload, transport.Upload{
				Round:    pol.Round,
				Decision: v.decision,
				Share:    share,
			})
			if err != nil {
				return
			}
			if err := conn.Send(up); err != nil {
				return
			}
		}
	}()
	return v
}

func (v *scriptedVehicle) disconnect() {
	_ = v.conn.Close()
	v.done.Wait()
}

// TestServerSurvivesVehicleDropout: a vehicle disconnecting mid-session is
// dropped from subsequent rounds without blocking them.
func TestServerSurvivesVehicleDropout(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("edge-f")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	defer srv.Close()

	v1 := startScriptedVehicle(t, net, "edge-f", 1, 7)
	v2 := startScriptedVehicle(t, net, "edge-f", 2, 8)
	defer v1.disconnect()

	deadline := time.Now().Add(2 * time.Second)
	for srv.NumVehicles() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	census, err := srv.RunRound(0, 1, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if census[6] != 1 || census[7] != 1 {
		t.Fatalf("round 0 census = %v", census)
	}

	// Vehicle 2 drops out.
	v2.disconnect()
	deadline = time.Now().Add(2 * time.Second)
	for srv.NumVehicles() > 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.NumVehicles() != 1 {
		t.Fatalf("dropout not detected: %d vehicles", srv.NumVehicles())
	}

	census, err = srv.RunRound(1, 1, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if census[6] != 1 || census[7] != 0 {
		t.Fatalf("round 1 census after dropout = %v", census)
	}
}

// TestServerLateJoiner: a vehicle connecting between rounds participates
// from the next round on.
func TestServerLateJoiner(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("edge-l")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	defer srv.Close()

	v1 := startScriptedVehicle(t, net, "edge-l", 1, 8)
	defer v1.disconnect()
	deadline := time.Now().Add(2 * time.Second)
	for srv.NumVehicles() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	census, err := srv.RunRound(0, 1, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if total(census) != 1 {
		t.Fatalf("round 0 census = %v", census)
	}

	v2 := startScriptedVehicle(t, net, "edge-l", 2, 7)
	defer v2.disconnect()
	deadline = time.Now().Add(2 * time.Second)
	for srv.NumVehicles() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	census, err = srv.RunRound(1, 1, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if total(census) != 2 {
		t.Fatalf("round 1 census = %v", census)
	}
}

func total(xs []int) int {
	n := 0
	for _, v := range xs {
		n += v
	}
	return n
}

// TestFailedRoundLeavesItsSpan: a round RunRound gives up on — every error
// return goes through one exit — still ends its edge_round span, with the
// error on it, so /debug/spans shows the round that failed and not only its
// neighbours; and it is not counted in edge_rounds_total. (The two
// transport.Encode failures take the same exit; Encode cannot fail today, so
// the refused ratio is the path a test can take.)
func TestFailedRoundLeavesItsSpan(t *testing.T) {
	srv := NewServer(4, lattice.NewPaper(), 7)
	defer srv.Close()
	o := obs.New()
	srv.Instrument(o)
	if _, err := srv.RunRound(3, 1.5, time.Second); err == nil {
		t.Fatal("a ratio outside [0,1] ran a round")
	}
	spans := o.Tracer().Recent(10)
	if len(spans) != 1 || spans[0].Name != "edge_round" {
		t.Fatalf("spans after a failed round = %+v, want its one edge_round", spans)
	}
	attrs := map[string]interface{}{}
	for _, a := range spans[0].Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["round"] != 3 || attrs["edge"] != 4 {
		t.Errorf("span attrs %v, want round 3 of edge 4", attrs)
	}
	if msg, _ := attrs["error"].(string); !strings.Contains(msg, "outside [0,1]") {
		t.Errorf("span error attr = %v, want the refused ratio", attrs["error"])
	}
	if n := o.Counter("edge_rounds_total", "").Value(); n != 0 {
		t.Errorf("edge_rounds_total = %d after a failed round, want 0", n)
	}
}
