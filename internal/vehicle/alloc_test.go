package vehicle

import (
	"reflect"
	"testing"

	"repro/internal/israce"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestBuildUploadAllocs pins an upload at its item list, sized once from the
// decision's share.
func TestBuildUploadAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	a, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetDecision(1); err != nil { // share-all: three items
		t.Fatal(err)
	}
	round := 0
	allocs := testing.AllocsPerRun(200, func() {
		round++
		if up := a.BuildUpload(round); len(up.Items) != 3 {
			t.Fatalf("upload has %d items, want 3", len(up.Items))
		}
	})
	if allocs > 1 {
		t.Errorf("BuildUpload: %.1f allocs, want <= 1", allocs)
	}
}

// TestReviseAllocs pins a revision on a warmed agent at nothing: the fitness
// vector is the agent's own, and the choice probabilities overwrite it in
// place. Fitness, for callers outside the round, still hands out a fresh
// vector — and Revise still draws from softmax of exactly those values.
func TestReviseAllocs(t *testing.T) {
	a, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := []float64{0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	revise := func() {
		if err := a.Revise(0.8, shares, 1); err != nil {
			t.Fatal(err)
		}
	}
	revise()
	q1, err := a.Fitness(0.8, shares)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := a.Fitness(0.8, shares)
	if &q1[0] == &q2[0] || &q1[0] == &a.q[0] {
		t.Error("Fitness handed out a vector it or Revise will write again")
	}
	want := make([]float64, len(q1))
	softmax(q1, a.Profile.Tau, want)
	if !reflect.DeepEqual(a.q, want) {
		t.Errorf("Revise chose from %v, softmax of Fitness is %v", a.q, want)
	}
	if israce.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(200, revise); allocs != 0 {
		t.Errorf("Revise on a warmed agent: %.1f allocs, want 0", allocs)
	}
}

// TestSentUploadIsNeverRewritten: the client sends each round's upload by
// pointer, and on the in-process transport the edge reads that very body —
// possibly late, when a delayed or duplicated frame outlives its round. So a
// body, once sent, must stay as it was sent: here round 1's is held across
// round 2 without copying.
func TestSentUploadIsNeverRewritten(t *testing.T) {
	clientConn, serverConn := transport.Pipe()
	agent, err := NewAgent(profile(7), lattice.PaperPayoffs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.SetDecision(1); err != nil {
		t.Fatal(err)
	}
	var held [2]*transport.Upload
	wg := scriptServer(t, serverConn, func(conn transport.Conn) error {
		if _, err := recvKind(conn, transport.KindHello); err != nil {
			return err
		}
		if err := ackOK(conn); err != nil {
			return err
		}
		for i := range held {
			pol, err := transport.Encode(transport.KindPolicy, transport.Policy{Round: i + 1, X: 0.9})
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
			held[i], _ = m.Body.(*transport.Upload)
		}
		return nil
	})
	client := &Client{Agent: agent, Mu: 0, Obs: obs.New()}
	if err := client.Run(clientConn); err != nil {
		t.Fatalf("client: %v", err)
	}
	wg.Wait()
	if held[0] == nil || held[1] == nil {
		t.Fatal("uploads did not arrive as *transport.Upload bodies")
	}
	if held[0] == held[1] {
		t.Fatal("two rounds' uploads are one body, rewritten in place")
	}
	for i, up := range held {
		if up.Round != i+1 || len(up.Items) != 3 || up.Items[0].Seq != 3*i+1 {
			t.Errorf("round %d's body after both rounds: %+v", i+1, *up)
		}
	}
}
