package edge

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
)

// resendPeer is a fake upstream that answers every census or census batch
// it reads with the round's reply, and logs each frame as "conn:round=count"
// (a batch as "conn:round[count ...]"), count being a census's first count.
// drop names the frames, by the same key, after which it closes the
// connection instead of answering, and answer those after which it answers
// and then closes it.
type resendPeer struct {
	got          []string
	drop, answer map[string]bool
}

func (p *resendPeer) serve(l transport.Listener) error {
	for conn := 1; ; conn++ {
		c, err := l.Accept()
		if err != nil {
			return nil
		}
		if err := p.session(c, conn); err != nil {
			return err
		}
	}
}

func (p *resendPeer) session(c transport.Conn, conn int) error {
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return nil
		}
		var key string
		var reply transport.Message
		switch m.Kind {
		case transport.KindCensus:
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return err
			}
			key = fmt.Sprintf("%d:%d=%d", conn, census.Round, census.Counts[0])
			reply, err = transport.Encode(transport.KindRatio, transport.Ratio{Round: census.Round + 1, X: float64(census.Counts[0])})
		case transport.KindCensusBatch:
			var batch transport.CensusBatch
			if err := transport.Decode(m, transport.KindCensusBatch, &batch); err != nil {
				return err
			}
			rb := transport.RatioBatch{Round: batch.Round + 1}
			for _, cs := range batch.Censuses {
				rb.Edges = append(rb.Edges, cs.Edge)
				rb.X = append(rb.X, float64(cs.Counts[0]))
			}
			key = fmt.Sprintf("%d:%d%v", conn, batch.Round, rb.X)
			reply, err = transport.Encode(transport.KindRatioBatch, rb)
		default:
			return fmt.Errorf("unexpected frame kind %v", m.Kind)
		}
		if err != nil {
			return err
		}
		p.got = append(p.got, key)
		if p.drop[key] {
			return nil
		}
		if err := c.Send(reply); err != nil || p.answer[key] {
			return nil
		}
	}
}

func resendDialer(net *transport.InprocNetwork) *transport.Dialer {
	return &transport.Dialer{
		Dial:  func() (transport.Conn, error) { return net.Dial("up") },
		Seed:  1,
		Sleep: func(time.Duration) {},
	}
}

// TestCloudLinkResendsAnsweredRound: every freshly dialed connection after
// the first answer carries, ahead of the exchange in progress, the census
// of the newest round the peer answered — exactly once, as it was answered
// although the caller has since rewritten its counts — and a live
// connection carries no re-send. Nor does the first connection, before
// any answer.
func TestCloudLinkResendsAnsweredRound(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("up")
	if err != nil {
		t.Fatal(err)
	}
	peer := &resendPeer{drop: map[string]bool{"1:2=12": true}, answer: map[string]bool{"2:3=13": true}}
	served := make(chan error, 1)
	go func() { served <- peer.serve(l) }()

	link := &CloudLink{Edge: 0, Dialer: resendDialer(net), ReplyTimeout: 2 * time.Second}
	counts := make([]int, 3) // one buffer, rewritten every round as an edge's is
	for round := 0; round < 5; round++ {
		counts[0] = 10 + round
		x, err := link.Report(round, counts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if x != float64(10+round) {
			t.Fatalf("round %d: ratio %v, want %d: a re-send's answer was taken for the exchange's", round, x, 10+round)
		}
	}
	link.Close()
	l.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// Connection 1 drops round 2 unanswered; connection 2 opens with round
	// 1's re-send, answers round 3 and closes; connection 3 opens with round
	// 3's.
	want := []string{"1:0=10", "1:1=11", "1:2=12", "2:1=11", "2:2=12", "2:3=13", "3:3=13", "3:4=14"}
	if !reflect.DeepEqual(peer.got, want) {
		t.Fatalf("peer read %q, want %q", peer.got, want)
	}
	if got := link.Obs.Counter("edge_cloud_redials_total", "").Value(); got != 2 {
		t.Errorf("edge_cloud_redials_total = %d, want 2", got)
	}
}

// TestBatchLinkResendsLastForward is TestCloudLinkResendsAnsweredRound for
// a shard's upstream: a redialed connection re-sends, once and ahead of the
// exchange in progress, the batch the owner's Last hands it at the redial,
// copied before it is sent; the first connection re-sends nothing.
func TestBatchLinkResendsLastForward(t *testing.T) {
	net := transport.NewInprocNetwork()
	l, err := net.Listen("up")
	if err != nil {
		t.Fatal(err)
	}
	peer := &resendPeer{drop: map[string]bool{"1:2[12 22]": true}, answer: map[string]bool{"2:3[13 23]": true}}
	served := make(chan error, 1)
	go func() { served <- peer.serve(l) }()

	// The owner's newest forward, which Last hands over and then scribbles
	// on, as a census set recycled once Last returns would be.
	last, lastRound := []transport.Census{{Edge: 0, Counts: make([]int, 2)}, {Edge: 1, Counts: make([]int, 2)}}, -1
	link := &BatchLink{Shard: 1, Dialer: resendDialer(net), ReplyTimeout: 2 * time.Second,
		Last: func(keep func(int, []transport.Census)) {
			if lastRound >= 0 {
				keep(lastRound, last)
				last[0].Counts[0], last[1].Counts[0] = -1, -1
			}
		}}
	c0, c1 := make([]int, 2), make([]int, 2)
	for round := 0; round < 5; round++ {
		c0[0], c1[0] = 10+round, 20+round
		batch := []transport.Census{{Edge: 0, Round: round, Counts: c0}, {Edge: 1, Round: round, Counts: c1}}
		reply, err := link.Report(round, batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if reply.Round != round+1 || len(reply.X) != 2 || reply.X[0] != float64(c0[0]) {
			t.Fatalf("round %d: reply %+v is not the exchange's", round, reply)
		}
		lastRound, last[0].Counts[0], last[1].Counts[0] = round, c0[0], c1[0]
	}
	link.Close()
	l.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	want := []string{"1:0[10 20]", "1:1[11 21]", "1:2[12 22]", "2:1[11 21]", "2:2[12 22]", "2:3[13 23]", "3:3[13 23]", "3:4[14 24]"}
	if !reflect.DeepEqual(peer.got, want) {
		t.Fatalf("peer read %q, want %q", peer.got, want)
	}
}
