package vehicle

import (
	"errors"
	"reflect"

	"repro/internal/obs"
	"strings"
	"sync"
	"testing"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// scriptServer runs a minimal edge-side script over one half of a Pipe.
func scriptServer(t *testing.T, conn transport.Conn, script func(conn transport.Conn) error) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer conn.Close()
		if err := script(conn); err != nil {
			t.Errorf("script server: %v", err)
		}
	}()
	return &wg
}

func recvKind(conn transport.Conn, kind transport.Kind) (transport.Message, error) {
	m, err := conn.Recv()
	if err != nil {
		return m, err
	}
	if m.Kind != kind {
		return m, errors.New("unexpected kind " + string(m.Kind))
	}
	return m, nil
}

func ackOK(conn transport.Conn) error {
	m, err := transport.Encode(transport.KindAck, transport.Ack{})
	if err != nil {
		return err
	}
	return conn.Send(m)
}

// TestClientFullRound runs one round against both generations of edge: the
// current one answers a good upload with the delivery alone, an older one
// acks it first, and the client absorbs that ack.
func TestClientFullRound(t *testing.T) {
	t.Run("delivery only", func(t *testing.T) { clientFullRound(t, false) })
	t.Run("old edge acks the upload", func(t *testing.T) { clientFullRound(t, true) })
}

func clientFullRound(t *testing.T, ackUpload bool) {
	clientConn, serverConn := transport.Pipe()
	agent, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SetDecision(1); err != nil {
		t.Fatal(err)
	}

	var gotUpload transport.Upload
	wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
		// Registration.
		if _, err := recvKind(conn, transport.KindHello); err != nil {
			return err
		}
		if err := ackOK(conn); err != nil {
			return err
		}
		// One policy round.
		counts := []int{1, 0, 0, 0, 0, 0, 0, 0}
		pol, err := transport.Encode(transport.KindPolicy, transport.Policy{Round: 1, X: 0.9, Counts: counts})
		if err != nil {
			return err
		}
		if err := conn.Send(pol); err != nil {
			return err
		}
		m, err := recvKind(conn, transport.KindUpload)
		if err != nil {
			return err
		}
		if err := transport.Decode(m, transport.KindUpload, &gotUpload); err != nil {
			return err
		}
		if ackUpload {
			if err := ackOK(conn); err != nil {
				return err
			}
		}
		// Delivery.
		del, err := transport.Encode(transport.KindDelivery, transport.Delivery{
			Round: 1,
			Items: []transport.Item{{Owner: 2, Modality: sensor.Radar}},
		})
		if err != nil {
			return err
		}
		return conn.Send(del)
	})

	client := &Client{Agent: agent, Mu: 0} // mu=0: decision stays at P1
	if err := client.Run(clientConn); err != nil {
		t.Fatalf("client: %v", err)
	}
	wg.Wait()

	// The vehicle is not on the wire: the edge knows it from the hello.
	if gotUpload.Vehicle != 0 || gotUpload.Round != 1 {
		t.Errorf("upload header %+v", gotUpload)
	}
	if gotUpload.Decision != 1 || gotUpload.Share != sensor.MaskAll {
		t.Errorf("upload should share all three modalities under P1: %+v", gotUpload)
	}
	if agent.ReceivedItems != 1 {
		t.Errorf("agent absorbed %d items, want 1", agent.ReceivedItems)
	}
}

// TestClientEndsOnUnexpectedKind: a frame of a kind a vehicle does not serve
// ends its session with an error, whether it comes in the registration
// ack's place or after the ack.
func TestClientEndsOnUnexpectedKind(t *testing.T) {
	for _, acked := range []bool{false, true} {
		clientConn, serverConn := transport.Pipe()
		agent, err := NewAgent(profile(4), lattice.PaperPayoffs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
			if _, err := recvKind(conn, transport.KindHello); err != nil {
				return err
			}
			if acked {
				if err := ackOK(conn); err != nil {
					return err
				}
			}
			m, err := transport.Encode(transport.KindRatio, transport.Ratio{Round: 1, X: 0.5})
			if err != nil {
				return err
			}
			return conn.Send(m)
		})
		err = (&Client{Agent: agent}).Run(clientConn)
		if err == nil || !strings.Contains(err.Error(), "unexpected message kind") {
			t.Errorf("acked %v: Run = %v, want an unexpected-kind error", acked, err)
		}
		clientConn.Close()
		wg.Wait()
	}
}

func TestClientRejectedRegistration(t *testing.T) {
	clientConn, serverConn := transport.Pipe()
	agent, err := NewAgent(profile(9), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
		if _, err := recvKind(conn, transport.KindHello); err != nil {
			return err
		}
		m, err := transport.Encode(transport.KindAck, transport.Ack{Err: "vehicle 9 already registered"})
		if err != nil {
			return err
		}
		return conn.Send(m)
	})
	client := &Client{Agent: agent, Mu: 0.5}
	err = client.Run(clientConn)
	if err == nil || !strings.Contains(err.Error(), "registration rejected") {
		t.Errorf("want registration rejection, got %v", err)
	}
	wg.Wait()
}

func TestClientServerErrorAck(t *testing.T) {
	clientConn, serverConn := transport.Pipe()
	agent, err := NewAgent(profile(3), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
		if _, err := recvKind(conn, transport.KindHello); err != nil {
			return err
		}
		if err := ackOK(conn); err != nil {
			return err
		}
		// Immediately reject whatever the client does next with an error
		// ack (no policy first — simulates a misbehaving server).
		m, err := transport.Encode(transport.KindAck, transport.Ack{Err: "round closed"})
		if err != nil {
			return err
		}
		return conn.Send(m)
	})
	client := &Client{Agent: agent, Mu: 0.5}
	err = client.Run(clientConn)
	if err == nil || !strings.Contains(err.Error(), "round closed") {
		t.Errorf("want server rejection surfaced, got %v", err)
	}
	wg.Wait()
}

func TestClientCleanShutdown(t *testing.T) {
	clientConn, serverConn := transport.Pipe()
	agent, err := NewAgent(profile(4), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
		if _, err := recvKind(conn, transport.KindHello); err != nil {
			return err
		}
		return ackOK(conn) // then close (deferred)
	})
	client := &Client{Agent: agent, Mu: 0.5}
	if err := client.Run(clientConn); err != nil {
		t.Errorf("clean close should return nil, got %v", err)
	}
	wg.Wait()
}

func TestClientNilAgent(t *testing.T) {
	c := &Client{}
	a, _ := transport.Pipe()
	if err := c.Run(a); err == nil {
		t.Error("nil agent must error")
	}
}

// TestClientIdempotentUnderDuplicates: a duplicated Policy broadcast re-sends
// the cached upload (same item sequence numbers, no second revision or
// shared-cost charge), a stale reordered Policy is dropped, and a duplicated
// Delivery is not double-counted.
func TestClientIdempotentUnderDuplicates(t *testing.T) {
	clientConn, serverConn := transport.Pipe()
	agent, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SetDecision(1); err != nil {
		t.Fatal(err)
	}

	var uploads []transport.Upload
	counts := []int{1, 0, 0, 0, 0, 0, 0, 0}
	sendPolicy := func(conn transport.Conn, round int) error {
		pol, err := transport.Encode(transport.KindPolicy, transport.Policy{Round: round, X: 0.9, Counts: counts})
		if err != nil {
			return err
		}
		return conn.Send(pol)
	}
	sendDelivery := func(conn transport.Conn, round int) error {
		del, err := transport.Encode(transport.KindDelivery, transport.Delivery{
			Round: round,
			Items: []transport.Item{{Owner: 2, Modality: sensor.Radar}},
		})
		if err != nil {
			return err
		}
		return conn.Send(del)
	}
	wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
		if _, err := recvKind(conn, transport.KindHello); err != nil {
			return err
		}
		if err := ackOK(conn); err != nil {
			return err
		}
		// Round 1's policy, duplicated: both trigger an upload, the second
		// from the cache.
		for i := 0; i < 2; i++ {
			if err := sendPolicy(conn, 1); err != nil {
				return err
			}
			m, err := recvKind(conn, transport.KindUpload)
			if err != nil {
				return err
			}
			var up transport.Upload
			if err := transport.Decode(m, transport.KindUpload, &up); err != nil {
				return err
			}
			uploads = append(uploads, up)
			if err := ackOK(conn); err != nil {
				return err
			}
		}
		// A stale round-0 policy produces no upload; the duplicated delivery
		// that follows is absorbed once. Round 2 afterwards proves the loop
		// is still in sync (a stray upload would break the kind sequence).
		if err := sendPolicy(conn, 0); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := sendDelivery(conn, 1); err != nil {
				return err
			}
		}
		if err := sendPolicy(conn, 2); err != nil {
			return err
		}
		if _, err := recvKind(conn, transport.KindUpload); err != nil {
			return err
		}
		return ackOK(conn)
	})

	client := &Client{Agent: agent, Mu: 0, Obs: obs.New()}
	if err := client.Run(clientConn); err != nil {
		t.Fatalf("client: %v", err)
	}
	wg.Wait()

	if len(uploads) != 2 {
		t.Fatalf("got %d uploads for the duplicated round, want 2", len(uploads))
	}
	if !reflect.DeepEqual(uploads[0], uploads[1]) {
		t.Errorf("re-sent upload differs from the original:\n first %+v\nsecond %+v", uploads[0], uploads[1])
	}
	// One charge per distinct round (1 and 2), not per broadcast.
	wantCost := 2 * agent.Profile.PrivacyWeight * lattice.PaperPayoffs().Cost[0]
	if agent.SharedCost != wantCost {
		t.Errorf("SharedCost = %v, want %v (charged once per round)", agent.SharedCost, wantCost)
	}
	if agent.ReceivedItems != 1 {
		t.Errorf("agent absorbed %d items, want 1 (duplicate delivery dropped)", agent.ReceivedItems)
	}
	if got := client.Obs.Counter("vehicle_duplicate_frames_total", "").Value(); got != 3 {
		t.Errorf("vehicle_duplicate_frames_total = %v, want 3", got)
	}
}
