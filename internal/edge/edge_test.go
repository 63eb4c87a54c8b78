package edge

import (
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

func upload(v, round, decision int, modalities ...sensor.Type) transport.Upload {
	return transport.Upload{Vehicle: v, Round: round, Decision: decision, Share: sensor.MaskOf(modalities...)}
}

func TestDistributorRoundLifecycle(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(1, 0.5); err != nil {
		t.Fatal(err)
	}
	if d.Round() != 1 || d.X() != 0.5 {
		t.Errorf("round/x = %d/%f", d.Round(), d.X())
	}
	if err := d.BeginRound(2, 1.5); err == nil {
		t.Error("invalid ratio must error")
	}
}

func TestAddUploadValidation(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddUpload(upload(1, 2, 1, sensor.Camera)); err == nil {
		t.Error("wrong round must be rejected")
	}
	if err := d.AddUpload(upload(1, 3, 99, sensor.Camera)); err == nil {
		t.Error("invalid decision must be rejected")
	}
	// Decision 7 = radar only: smuggling camera must be rejected.
	if err := d.AddUpload(upload(1, 3, 7, sensor.Camera)); err == nil {
		t.Error("modality outside decision must be rejected")
	}
	// Nor by a share with a bit outside the sensor set.
	if err := d.AddUpload(transport.Upload{Vehicle: 1, Round: 3, Decision: 1, Share: sensor.MaskAll | 8}); err == nil {
		t.Error("share outside the sensor set must be rejected")
	}
	if err := d.AddUpload(upload(1, 3, 7, sensor.Radar)); err != nil {
		t.Errorf("valid upload rejected: %v", err)
	}
	if d.NumUploads() != 1 {
		t.Errorf("NumUploads = %d", d.NumUploads())
	}
	// Replacement.
	if err := d.AddUpload(upload(1, 3, 8)); err != nil {
		t.Fatal(err)
	}
	if d.NumUploads() != 1 {
		t.Errorf("replacement changed count: %d", d.NumUploads())
	}
}

// TestDistributeLatticePolicy: with x = 1 every accessible item is
// delivered and no inaccessible item leaks.
func TestDistributeLatticePolicy(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(1, 1); err != nil {
		t.Fatal(err)
	}
	// Vehicle 1: decision 1 (everything); vehicle 2: decision 7 (radar);
	// vehicle 3: decision 8 (nothing).
	for _, u := range []transport.Upload{
		upload(1, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar),
		upload(2, 1, 7, sensor.Radar),
		upload(3, 1, 8),
	} {
		if err := d.AddUpload(u); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Distribute()

	// Vehicle 1 (decision 1) accesses everyone: radar from 2, nothing from 3.
	if len(got[1]) != 1 || got[1][0].Owner != 2 || got[1][0].Modality != sensor.Radar {
		t.Errorf("vehicle 1 delivery = %v", got[1])
	}
	// Vehicle 2 (decision 7) accesses subsets of {radar}: only vehicle 3's
	// empty share. Nothing from vehicle 1 (P1 is a superset).
	if len(got[2]) != 0 {
		t.Errorf("vehicle 2 delivery = %v, want empty", got[2])
	}
	// Vehicle 3 (decision 8) accesses nothing.
	if len(got[3]) != 0 {
		t.Errorf("vehicle 3 delivery = %v, want empty", got[3])
	}
}

// TestDistributeZeroRatio: x = 0 delivers nothing.
func TestDistributeZeroRatio(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, u := range []transport.Upload{
		upload(1, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar),
		upload(2, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar),
	} {
		if err := d.AddUpload(u); err != nil {
			t.Fatal(err)
		}
	}
	for v, items := range d.Distribute() {
		if len(items) != 0 {
			t.Errorf("vehicle %d received %d items at x=0", v, len(items))
		}
	}
}

// TestDistributeRatioStatistics: with many pairs, the delivered fraction
// approaches x.
func TestDistributeRatioStatistics(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 42)
	x := 0.3
	if err := d.BeginRound(1, x); err != nil {
		t.Fatal(err)
	}
	n := 60
	for v := 1; v <= n; v++ {
		if err := d.AddUpload(upload(v, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar)); err != nil {
			t.Fatal(err)
		}
	}
	deliveries := d.Distribute()
	pairs := 0
	delivered := 0
	for _, items := range deliveries {
		// Each delivered sharer contributes 3 items.
		delivered += len(items) / 3
		pairs += n - 1
	}
	frac := float64(delivered) / float64(pairs)
	if math.Abs(frac-x) > 0.05 {
		t.Errorf("delivered fraction %.3f, want ~%.1f", frac, x)
	}
}

func TestCensusAndShares(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(1, 1); err != nil {
		t.Fatal(err)
	}
	for _, u := range []transport.Upload{
		upload(1, 1, 1, sensor.Camera, sensor.LiDAR, sensor.Radar),
		upload(2, 1, 7, sensor.Radar),
		upload(3, 1, 7, sensor.Radar),
		upload(4, 1, 8),
	} {
		if err := d.AddUpload(u); err != nil {
			t.Fatal(err)
		}
	}
	census := d.Census()
	if census[0] != 1 || census[6] != 2 || census[7] != 1 {
		t.Errorf("census = %v", census)
	}
	shares := Shares(nil, census)
	if math.Abs(shares[6]-0.5) > 1e-12 {
		t.Errorf("shares = %v", shares)
	}
	uniform := Shares(nil, make([]int, 8))
	for _, v := range uniform {
		if math.Abs(v-0.125) > 1e-12 {
			t.Errorf("empty census shares = %v", uniform)
		}
	}
}

// TestServerRoundOverInproc drives two full rounds over the in-process
// transport with three hand-driven vehicles. Frames on one conn arrive in
// order, so each vehicle asserts that its good upload is followed by the
// delivery and nothing else: a success ack would show up either in place of
// the delivery or in place of the next round's policy.
func TestServerRoundOverInproc(t *testing.T) {
	srv, dial := startServer(t)
	clients := []struct {
		decision int
		items    []sensor.Type
	}{
		{decision: 1, items: sensor.AllTypes()},
		{decision: 7, items: []sensor.Type{sensor.Radar}},
		{decision: 8},
	}
	vehicles := make([]*testVehicle, len(clients))
	for i := range clients {
		vehicles[i] = registerVehicle(t, dial, i+1)
	}
	awaitVehicles(t, srv, len(clients))

	for round := 1; round <= 2; round++ {
		census := runRound(t, srv, round, 5*time.Second)
		for i, v := range vehicles {
			v.recvPolicy(round)
			v.upload(round, clients[i].decision, clients[i].items...)
		}
		if counts := <-census; total(counts) != 3 || counts[0] != 1 || counts[6] != 1 || counts[7] != 1 {
			t.Errorf("round %d census = %v", round, counts)
		}
		for _, v := range vehicles {
			var del transport.Delivery
			v.recv(transport.KindDelivery, &del)
			if del.Round != round {
				t.Errorf("vehicle %d: delivery for round %d in round %d", v.id, del.Round, round)
			}
			// Vehicle 1 (decision 1, x=1) must receive vehicle 2's radar item.
			if v.id == 1 && (len(del.Items) != 1 || del.Items[0].Modality != sensor.Radar) {
				t.Errorf("vehicle 1 delivery = %+v", del)
			}
		}
	}
}

// TestServerRoundTimeout: a round with a missing vehicle still completes
// after the timeout.
func TestServerRoundTimeout(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("edge-t")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("edge-t")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := transport.Encode(transport.KindHello, transport.Hello{Vehicle: 1})
	if err := conn.Send(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // ack
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.NumVehicles() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	census, err := srv.RunRound(1, 0.5, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Error("round completed before timeout despite missing upload")
	}
	for _, c := range census {
		if c != 0 {
			t.Errorf("census should be empty, got %v", census)
		}
	}
}

// TestServerDuplicateRegistrationReplacesStale: when a vehicle re-registers
// (e.g. after a reconnect the server has not noticed yet), the new session
// wins — the stale conn is closed and the registry still holds one entry.
func TestServerDuplicateRegistrationReplacesStale(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("edge-d")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0, lattice.NewPaper(), 7)
	go srv.Serve(l)
	defer srv.Close()

	register := func() (transport.Conn, transport.Ack) {
		conn, err := net.Dial("edge-d")
		if err != nil {
			t.Fatal(err)
		}
		hello, _ := transport.Encode(transport.KindHello, transport.Hello{Vehicle: 9})
		if err := conn.Send(hello); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var a transport.Ack
		if err := transport.Decode(m, transport.KindAck, &a); err != nil {
			t.Fatal(err)
		}
		return conn, a
	}
	c1, a1 := register()
	defer c1.Close()
	if a1.Err != "" {
		t.Fatalf("first registration failed: %s", a1.Err)
	}
	c2, a2 := register()
	defer c2.Close()
	if a2.Err != "" {
		t.Errorf("re-registration should replace the stale session, got %q", a2.Err)
	}
	// The stale conn is closed by the server.
	done := make(chan error, 1)
	go func() {
		_, err := c1.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Errorf("stale conn Recv = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stale conn was not closed")
	}
	if n := srv.NumVehicles(); n != 1 {
		t.Errorf("NumVehicles = %d, want 1", n)
	}
}

// Regression test for a check-then-act race: AddUpload used to validate the
// round under one lock acquisition and insert under another, so a
// BeginRound between the two could land a stale upload in the fresh
// buffer. Hammer uploads against concurrent round flips and assert the
// invariant that the buffer only ever holds uploads for the current round.
func TestAddUploadRoundFlipRace(t *testing.T) {
	d := NewDistributor(lattice.NewPaper(), 1)
	if err := d.BeginRound(0, 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u0 := upload(w, 0, 8)
			u1 := upload(w, 1, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Both rounds race the flips; exactly one is current at any
				// instant, and stale ones must bounce with ErrStaleUpload.
				for _, u := range []transport.Upload{u0, u1} {
					if err := d.AddUpload(u); err != nil && !errors.Is(err, ErrStaleUpload) {
						t.Errorf("AddUpload: %v", err)
						return
					}
				}
			}
		}(w)
	}

	check := func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		for v, s := range d.slots {
			if s.gen == d.gen && s.up.Round != d.round {
				t.Fatalf("vehicle %d upload for round %d buffered in round %d", v, s.up.Round, d.round)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		if err := d.BeginRound(i%2, 1); err != nil {
			t.Fatal(err)
		}
		check()
	}
	close(stop)
	wg.Wait()
	check()
}
