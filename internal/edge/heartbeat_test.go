package edge

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// leaseServer is a minimal cloud stand-in: it acks every KindLease frame it
// receives and records the renewals. kill closes the listener AND every
// accepted conn — inproc conns outlive their listener, so a plain listener
// close would not simulate the process dying.
type leaseServer struct {
	l        transport.Listener
	mu       sync.Mutex
	conns    []transport.Conn
	renewals []transport.Lease
	wg       sync.WaitGroup
}

func (ls *leaseServer) serve(l transport.Listener) {
	ls.l = l
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			ls.mu.Lock()
			ls.conns = append(ls.conns, conn)
			ls.mu.Unlock()
			ls.wg.Add(1)
			go func() {
				defer ls.wg.Done()
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					var lease transport.Lease
					if err := transport.Decode(m, transport.KindLease, &lease); err != nil {
						continue
					}
					ls.mu.Lock()
					ls.renewals = append(ls.renewals, lease)
					ls.mu.Unlock()
					ack, _ := transport.Encode(transport.KindAck, transport.Ack{})
					if err := conn.Send(ack); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func (ls *leaseServer) count() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.renewals)
}

func (ls *leaseServer) kill() {
	ls.l.Close()
	ls.mu.Lock()
	for _, c := range ls.conns {
		_ = c.Close()
	}
	ls.mu.Unlock()
	ls.wg.Wait()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The heartbeat must renew periodically, survive the lease server dying,
// and redial onto its replacement.
func TestHeartbeatRenewsAndRedials(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv := &leaseServer{}
	srv.serve(l)

	o := obs.New()
	hb := &Heartbeat{
		Edge: 3,
		Dialer: &transport.Dialer{
			Dial:      func() (transport.Conn, error) { return net.Dial("cloud") },
			BaseDelay: time.Millisecond,
			MaxDelay:  10 * time.Millisecond,
		},
		TTL:      90 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Obs:      o,
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hb.Run(stop)
	}()

	waitUntil(t, "initial renewals", func() bool { return srv.count() >= 3 })
	srv.mu.Lock()
	got := srv.renewals[0]
	srv.mu.Unlock()
	if got.Edge != 3 || got.TTLMillis != 90 {
		t.Fatalf("lease frame = %+v, want Edge 3, TTLMillis 90", got)
	}

	// Kill the cloud: the listener goes away and in-flight conns die.
	srv.kill()

	// Restart it under the same name; the heartbeat must redial and resume.
	l2, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &leaseServer{}
	srv2.serve(l2)
	waitUntil(t, "renewals after restart", func() bool { return srv2.count() >= 2 })

	close(stop)
	<-done
	srv2.kill()

	reg := o.Registry()
	var renewals, redials float64
	for _, p := range reg.Snapshot() {
		switch p.Name {
		case "edge_lease_renewals_total":
			renewals = p.Value
		case "edge_lease_redials_total":
			redials = p.Value
		}
	}
	if renewals < 5 {
		t.Errorf("edge_lease_renewals_total = %v, want >= 5", renewals)
	}
	if redials < 1 {
		t.Errorf("edge_lease_redials_total = %v, want >= 1", redials)
	}
}

// Run must exit promptly when stop closes, even while the cloud is down
// and the heartbeat is inside its dial-retry loop.
func TestHeartbeatStopsWhileCloudDown(t *testing.T) {
	net := transport.NewInprocNetwork()
	hb := &Heartbeat{
		Edge: 0,
		Dialer: &transport.Dialer{
			Dial:        func() (transport.Conn, error) { return net.Dial("nowhere") },
			MaxAttempts: 2,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
		},
		TTL: 50 * time.Millisecond,
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hb.Run(stop)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat did not stop while dialing a dead cloud")
	}
}

// A cloud that accepts every connection and drops it at once must not be
// redialed in a tight loop: a renewal that failed on every attempt rests one
// interval, like an acked one.
func TestHeartbeatPacesADroppingCloud(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			_ = conn.Close()
		}
	}()
	var dials atomic.Int64
	hb := &Heartbeat{
		Edge: 1,
		Dialer: &transport.Dialer{
			Dial: func() (transport.Conn, error) {
				dials.Add(1)
				return net.Dial("cloud")
			},
			BaseDelay: time.Millisecond,
			MaxDelay:  10 * time.Millisecond,
		},
		TTL:      90 * time.Millisecond,
		Interval: 10 * time.Millisecond,
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hb.Run(stop)
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-done
	if n := dials.Load(); n > 50 {
		t.Fatalf("heartbeat dialed a dropping cloud %d times in 100ms, want <= 50", n)
	}
}
