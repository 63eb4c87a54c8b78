package gossip

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/transport"
)

// tcpHood starts a two-member neighborhood over loopback TCP with no cloud
// and no state directory; mutate adjusts each node's config before NewNode.
func tcpHood(t *testing.T, mutate func(*Config)) []*Node {
	t.Helper()
	var addrs [2]string
	var listeners [2]transport.Listener
	for i := range listeners {
		l, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		listeners[i], addrs[i] = l, l.Addr()
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		cfg := Config{
			Edge: i, Members: []int{0, 1}, Of: 1,
			ReplyTimeout: 5 * time.Second,
			Fold:         testFold(t, 2),
			PeerDial:     func(member int) (transport.Conn, error) { return transport.DialTCP(addrs[member]) },
		}
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		go n.Serve(listeners[i])
		nodes[i] = n
	}
	return nodes
}

// senderGoroutines counts the goroutines running a peer sender.
func senderGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "gossip.(*Node).runSender")
}

// TestLocalRoundAllocs pins what a warmed two-member TCP hood's local round
// costs, both members' LocalRound together: the leader's backlog-cap log
// line, and nothing else. Each member's barrier, with its wake channel and
// deadline, is one the engine let go of; its span takes a tracer slot whose
// storage is reused; the census set is one the node handed back (the
// follower's once its round is journaled, the leader's when the cap sheds
// it); the census frames, their acks and the peer's decode allocate nothing,
// and no goroutine is started per send.
func TestLocalRoundAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	nodes := tcpHood(t, func(c *Config) {
		c.EscalateEvery = 1 << 20 // never escalates: there is no cloud
		c.MaxBacklog = 2          // the leader's backlog stops growing
	})
	rounds, errs := make(chan int), make(chan error)
	c0, c1, round := counts(0, 0), counts(1, 0), -1
	go func() {
		for r := range rounds {
			_, err := nodes[1].LocalRound(r, c1)
			errs <- err
		}
	}()
	defer close(rounds)
	step := func() {
		round++
		rounds <- round
		if _, err := nodes[0].LocalRound(round, c0); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step() // dials both links and grows every buffer
	}
	allocs := testing.AllocsPerRun(100, step)
	t.Logf("a two-member local round: %.1f allocs", allocs)
	if allocs > localRoundAllocs {
		t.Errorf("a two-member local round: %.1f allocs, want at most %d", allocs, localRoundAllocs)
	}
}

// localRoundAllocs is TestLocalRoundAllocs's pinned count.
const localRoundAllocs = 1

// TestLocalRoundRacingClose: a LocalRound that Close overtakes — before,
// during or after its census goes out — returns the round's ratio or
// transport.ErrClosed, never hangs, and Close leaves no sender behind.
func TestLocalRoundRacingClose(t *testing.T) {
	before := senderGoroutines()
	for i := 0; i < 20; i++ {
		nodes := tcpHood(t, nil)
		done := make(chan error, 2)
		for e, n := range nodes {
			go func() {
				_, err := n.LocalRound(0, counts(e, 0))
				done <- err
			}()
		}
		time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
		nodes[0].Close()
		nodes[1].Close()
		for range nodes {
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("run %d: LocalRound racing Close = %v, want a ratio or ErrClosed", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("run %d: LocalRound still blocked 10s after Close", i)
			}
		}
	}
	if left := senderGoroutines(); left > before {
		t.Errorf("%d sender goroutines left after Close (had %d)", left, before)
	}
}

// TestBeatAndCensusShareDialSchedule: a beat and a census for the same dead
// peer go out on its one sender, so they take turns on its link's dial
// schedule — every dial runs alone, and each exchange makes the schedule's
// four attempts once.
func TestBeatAndCensusShareDialSchedule(t *testing.T) {
	var dials, inFlight, overlaps atomic.Int32
	n, err := NewNode(Config{
		Edge: 0, Members: []int{0, 1}, Of: 1,
		Deadline: 50 * time.Millisecond, // the dead peer's census never comes
		Fold:     testFold(t, 2),
		PeerDial: func(int) (transport.Conn, error) {
			dials.Add(1)
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return nil, errors.New("peer is dead")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n.fanOut(peerJob{fan: &n.beatFan, beat: transport.HoodBeat{Hood: 0, Epoch: 0, Leader: 0, TTLMillis: 250}})
	}()
	go func() {
		defer wg.Done()
		if _, err := n.LocalRound(0, counts(0, 0)); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if got := dials.Load(); got != 8 {
		t.Errorf("%d dials for a beat and a census, want 2 x 4", got)
	}
	if got := overlaps.Load(); got != 0 {
		t.Errorf("%d dials overlapped another", got)
	}
	if f, b := n.metrics.sendFailures.Value(), n.metrics.beatFailures.Value(); f != 1 || b != 1 {
		t.Errorf("send failures %d, beat failures %d, want 1 and 1", f, b)
	}
}
