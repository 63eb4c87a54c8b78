package cloud

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/transport"
)

// linkFleet is two edges' CloudLinks to whatever server listens at "cloud"
// on net.
type linkFleet struct {
	net   *transport.InprocNetwork
	links [2]*edge.CloudLink
}

func newLinkFleet(t *testing.T) *linkFleet {
	f := &linkFleet{net: transport.NewInprocNetwork()}
	for e := range f.links {
		f.links[e] = &edge.CloudLink{
			Edge: e,
			Dialer: &transport.Dialer{
				Dial:  func() (transport.Conn, error) { return f.net.Dial("cloud") },
				Seed:  int64(e + 1),
				Sleep: func(time.Duration) {},
			},
			ReplyTimeout: 5 * time.Second,
		}
		t.Cleanup(func() { f.links[e].Close() })
	}
	return f
}

// serve puts srv behind the fleet's address until the test ends or srv
// closes.
func (f *linkFleet) serve(t *testing.T, srv *Server) transport.Listener {
	t.Helper()
	l, err := f.net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	return l
}

// round reports round's censuses over both links at once, as two edges do.
func (f *linkFleet) round(t *testing.T, round int) {
	t.Helper()
	c0, c1 := testCounts(round%8, 7-round%8, 10)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for e, counts := range [][]int{c0, c1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[e] = f.links[e].Report(round, counts)
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("round %d: %v / %v", round, errs[0], errs[1])
	}
}

// twinHash is the state hash of a lossless in-memory cloud after rounds
// full rounds.
func twinHash(t *testing.T, lag, rounds int) uint32 {
	t.Helper()
	twin := crashServer(t, lag)
	twin.journal = new(durable.Journal)
	for r := 0; r < rounds; r++ {
		c0, c1 := testCounts(r%8, 7-r%8, 10)
		runFullRound(t, twin, r, c0, c1)
	}
	return twin.StateHash()
}

// TestReplyWindowCrashRefoldsFromResend runs two edges over real CloudLinks
// and crashes the cloud in the window this order opens: round 5 is answered
// to both edges while its record's fsync is held, the cloud is Closed
// without a drain, and a copy of its directory as that crash leaves it —
// the segment cut back to what the last fsync covered — is reopened. It
// recovers through round 4 only; the edges' links, redialing for round 6,
// re-send round 5 first, and the run ends on the lossless twin's hash with
// every round folded once.
func TestReplyWindowCrashRefoldsFromResend(t *testing.T) {
	const answered, rounds = 5, 9
	for _, lag := range []int{0, 2} {
		t.Run(fmt.Sprintf("lag=%d", lag), func(t *testing.T) {
			gate := crashtest.NewGate()
			var held atomic.Bool  // the gate holds the next journal fsync
			var segment string    // the segment the held fsync is on
			var durableSize int64 // its length the fsync before covered
			dir := t.TempDir()
			srv := crashServer(t, lag)
			srv.journal = durable.NewJournal(func(op, path string) error {
				if op == "sync" && strings.HasPrefix(filepath.Base(path), "journal") {
					if held.Load() {
						segment = path
					} else if st, err := os.Stat(path); err == nil {
						durableSize = st.Size()
					}
				}
				return gate.Hook(op, path)
			}, durable.CompactEvery)
			if err := srv.Open(dir); err != nil {
				t.Fatal(err)
			}
			fleet := newLinkFleet(t)
			l := fleet.serve(t, srv)
			for r := 0; r < answered; r++ {
				fleet.round(t, r)
			}
			// Round 4's append, begun as it was answered, ends unheld.
			srv.mu.Lock()
			srv.settleLocked()
			srv.mu.Unlock()
			held.Store(true)
			gate.Hold(true)
			fleet.round(t, answered) // answered with its fsync held
			<-gate.Reached
			crashed := crashtest.CopyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashed, filepath.Base(segment)), durableSize); err != nil {
				t.Fatal(err)
			}
			gate.Hold(false)
			gate.Release(nil)
			srv.Close()
			l.Close()

			rec := crashServer(t, lag)
			if err := rec.Open(crashed); err != nil {
				t.Fatal(err)
			}
			if got := rec.Latest(); got != answered-1 {
				t.Fatalf("recovered through round %d, want %d: the crash did not lose the answered round", got, answered-1)
			}
			fleet.serve(t, rec)
			for r := answered + 1; r < rounds; r++ {
				fleet.round(t, r)
			}
			if got := rec.Latest(); got != rounds-1 {
				t.Fatalf("latest = %d after round %d", got, rounds-1)
			}
			if got, want := rec.StateHash(), twinHash(t, lag, rounds); got != want {
				t.Fatalf("hash %08x after the re-sent round refolded, the lossless twin's %08x", got, want)
			}
			if n := metricValue(t, rec.Registry(), "consensus_rounds_total"); n != rounds-answered {
				t.Errorf("consensus_rounds_total = %v after recovery, want %d: rounds %d to %d, each once", n, rounds-answered, answered, rounds-1)
			}
			if n := metricValue(t, rec.Registry(), "consensus_degraded_rounds_total"); n != 0 {
				t.Errorf("consensus_degraded_rounds_total = %v, want 0", n)
			}
		})
	}
}

// TestReplyWindowRecoveredRoundWaitsOneLease: the first round after a
// recovery — the one a crash may have lost after answering it — is not
// completed by the lease quorum of the members that renewed first. The
// first renewal leases every member for its TTL, so the round waits for a
// member that re-sends within it; a dead member's lease lapses, and the
// round then completes degraded without a round deadline, logged as
// possibly differing and counted, and the next round takes the lease
// quorum at once. A round deadline completes it degraded sooner.
func TestReplyWindowRecoveredRoundWaitsOneLease(t *testing.T) {
	dir := t.TempDir()
	srv := crashServer(t, 0)
	srv.journal = new(durable.Journal)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		c0, c1 := testCounts(r, 7-r, 10)
		runFullRound(t, srv, r, c0, c1)
	}
	srv.Close()
	c0, c1 := testCounts(3, 4, 10)
	recovered := func(t *testing.T) (*Server, func() string) {
		rec := crashServer(t, 0)
		rec.journal = new(durable.Journal)
		var logged []string
		var mu sync.Mutex
		rec.SetLogf(func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		})
		if err := rec.Open(crashtest.CopyDir(t, dir)); err != nil {
			t.Fatal(err)
		}
		return rec, func() string {
			mu.Lock()
			defer mu.Unlock()
			return strings.Join(logged, "\n")
		}
	}
	const differs = "the first after recovery, may differ"

	t.Run("live member", func(t *testing.T) {
		rec, _ := recovered(t)
		if err := rec.RenewLease(0, time.Minute); err != nil {
			t.Fatal(err)
		}
		first := make(chan error, 1)
		go func() {
			_, err := rec.Submit(transport.Census{Edge: 0, Round: 3, Counts: c0})
			first <- err
		}()
		select {
		case err := <-first:
			t.Fatalf("the recovered round completed on edge 0's lease alone (%v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		if _, err := rec.Submit(transport.Census{Edge: 1, Round: 3, Counts: c1}); err != nil {
			t.Fatal(err)
		}
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if n := metricValue(t, rec.Registry(), "consensus_degraded_rounds_total"); n != 0 {
			t.Errorf("consensus_degraded_rounds_total = %v, want 0", n)
		}
	})

	t.Run("dead member", func(t *testing.T) {
		rec, logged := recovered(t)
		const ttl = 100 * time.Millisecond
		renewed := time.Now()
		if err := rec.RenewLease(0, ttl); err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Submit(transport.Census{Edge: 0, Round: 3, Counts: c0}); err != nil {
			t.Fatal(err)
		}
		if waited := time.Since(renewed); waited < ttl {
			t.Fatalf("the recovered round completed after %v, before edge 1's lease of %v lapsed", waited, ttl)
		}
		if !strings.Contains(logged(), differs) {
			t.Errorf("the degraded recovered round was not logged as possibly diverging: %q", logged())
		}
		if err := rec.RenewLease(0, time.Minute); err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Submit(transport.Census{Edge: 0, Round: 4, Counts: c0}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Latest(); got != 4 {
			t.Fatalf("latest = %d: round 4 did not complete on edge 0's lease", got)
		}
		if n := metricValue(t, rec.Registry(), "consensus_degraded_rounds_total"); n != 2 {
			t.Errorf("consensus_degraded_rounds_total = %v, want 2 (rounds 3 and 4, by lease quorum)", n)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		rec, logged := recovered(t)
		if err := rec.RenewLease(0, time.Minute); err != nil {
			t.Fatal(err)
		}
		rec.SetRoundDeadline(30 * time.Millisecond)
		if _, err := rec.Submit(transport.Census{Edge: 0, Round: 3, Counts: c0}); err != nil {
			t.Fatal(err)
		}
		if n := metricValue(t, rec.Registry(), "consensus_degraded_rounds_total"); n != 1 {
			t.Errorf("consensus_degraded_rounds_total = %v, want 1", n)
		}
		if !strings.Contains(logged(), differs) {
			t.Errorf("the degraded recovered round was not logged as possibly diverging: %q", logged())
		}
	})
}

// TestLinkDropAtLiveCloudFoldsNothingTwice: an edge whose link drops at a
// cloud that did not crash re-sends its newest answered round on the fresh
// connection, and the cloud folds nothing twice — one late census (with a
// lag window, a duplicate absorbed without a rewind), every round folded
// once, the lossless twin's hash.
func TestLinkDropAtLiveCloudFoldsNothingTwice(t *testing.T) {
	const rounds = 6
	for _, lag := range []int{0, 2} {
		t.Run(fmt.Sprintf("lag=%d", lag), func(t *testing.T) {
			srv := crashServer(t, lag)
			srv.journal = new(durable.Journal)
			if err := srv.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			fleet := newLinkFleet(t)
			fleet.serve(t, srv)
			for r := 0; r < rounds; r++ {
				if r == 3 {
					fleet.links[0].Close() // the next Report dials afresh
				}
				fleet.round(t, r)
			}
			if got, want := srv.StateHash(), twinHash(t, lag, rounds); got != want {
				t.Fatalf("hash %08x, the lossless twin's %08x", got, want)
			}
			want := map[string]float64{
				"consensus_rounds_total":             rounds,
				"consensus_late_censuses_total":      1,
				"consensus_rewinds_total":            0,
				"consensus_duplicate_censuses_total": float64(min(lag, 1)),
			}
			for name, n := range want {
				if got := metricValue(t, srv.Registry(), name); got != n {
					t.Errorf("%s = %v, want %v", name, got, n)
				}
			}
		})
	}
}
