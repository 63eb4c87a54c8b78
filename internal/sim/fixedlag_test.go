package sim

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

// counterValue reads one counter's value out of a registry snapshot.
func counterValue(points []obs.Point, name string) (float64, bool) {
	for _, p := range points {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value, true
		}
	}
	return 0, false
}

// chaosGraph is a 2-region graph with dominant intra-region frequency.
type chaosGraph struct{}

func (chaosGraph) M() int { return 2 }
func (chaosGraph) Gamma(i, j int) float64 {
	if i == j {
		return 0.9
	}
	return 0.1
}
func (chaosGraph) Neighbors(i int) []int {
	if i == 0 {
		return []int{1}
	}
	return []int{0}
}

// fixedLagFDS builds a fresh deterministic controller; each run gets its own
// so controller memory never leaks between the baseline and the faulted run.
func fixedLagFDS(t *testing.T) *policy.FDS {
	t.Helper()
	m, err := game.NewModel(lattice.PaperPayoffs(), chaosGraph{}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	target := []float64{0.7, 0, 0, 0, 0, 0, 0, 0}
	field, err := policy.NewUniformField(2, target, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for k := 1; k < 8; k++ {
			field.P[i][k].Lo, field.P[i][k].Hi = 0, 1
		}
	}
	fds, err := policy.NewFDS(m, field, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return fds
}

// fixedLagCounts is the scripted census for one (region, round): an
// open-loop deterministic function, so the lossless and faulted runs feed
// the cloud byte-identical inputs regardless of message timing.
func fixedLagCounts(region, round int) []int {
	counts := make([]int, 8)
	for k := range counts {
		counts[k] = 1 + (region*31+round*7+k*3)%5
	}
	return counts
}

// runFixedLagLossless folds every scripted census through full barriers —
// the zero-fault golden trajectory.
func runFixedLagLossless(t *testing.T, rounds int) (*game.State, uint32) {
	t.Helper()
	srv, err := cloud.NewServer(fixedLagFDS(t), game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = srv.Submit(transport.Census{Edge: i, Round: round, Counts: fixedLagCounts(i, round)})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("lossless region %d round %d: %v", i, round, err)
			}
		}
	}
	return srv.State(), srv.StateHash()
}

// scrapeMetric fetches /metrics from addr and returns the named series value.
func scrapeMetric(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// TestFixedLagDeterminism drives the census pipeline through a fault
// injector that delays, reorders, and duplicates frames — but never drops
// them — with every straggler landing inside the cloud's fixed-lag window.
// The published ratio field must come out bit-identical (same CRC-32C golden
// hash) to the zero-fault run, on both the in-proc and TCP transports, with
// at least one actual rewind proving the machinery engaged. The hash is also
// asserted through a live /metrics scrape, the same way the CI chaos job
// reads it.
func TestFixedLagDeterminism(t *testing.T) {
	const (
		rounds        = 14
		lag           = 16 // > max lateness in rounds: every straggler is rewindable
		roundDeadline = 15 * time.Millisecond
	)
	goldenState, goldenHash := runFixedLagLossless(t, rounds)

	transports := []struct {
		name   string
		listen func(t *testing.T) (transport.Listener, func() (transport.Conn, error))
	}{
		{"inproc", func(t *testing.T) (transport.Listener, func() (transport.Conn, error)) {
			net := transport.NewInprocNetwork()
			l, err := net.Listen("cloud")
			if err != nil {
				t.Fatal(err)
			}
			return l, func() (transport.Conn, error) { return net.Dial("cloud") }
		}},
		{"tcp", func(t *testing.T) (transport.Listener, func() (transport.Conn, error)) {
			l, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := l.Addr()
			return l, func() (transport.Conn, error) { return transport.DialTCP(addr) }
		}},
	}
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			srv, err := cloud.NewServer(fixedLagFDS(t), game.NewUniformState(2, 8, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			srv.SetFixedLag(lag)
			srv.Instrument(o)
			srv.SetRoundDeadline(roundDeadline)
			defer srv.Close()

			listener, dial := tc.listen(t)
			defer listener.Close()
			go srv.Serve(listener)

			httpSrv, err := obs.Serve("127.0.0.1:0", o)
			if err != nil {
				t.Fatal(err)
			}
			defer httpSrv.Close()

			// Delays up to ~3x the round deadline force degraded rounds whose
			// stragglers arrive mid-window; duplicated frames exercise the
			// dedup paths. No drops: every census eventually arrives.
			fault := transport.NewFault(transport.FaultConfig{
				Seed:     23,
				DupProb:  0.25,
				MinDelay: time.Millisecond,
				MaxDelay: 40 * time.Millisecond,
			})

			links := make([]*edge.CloudLink, 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				links[i] = &edge.CloudLink{
					Edge: i,
					Dialer: &transport.Dialer{
						Dial: func() (transport.Conn, error) {
							c, err := dial()
							if err != nil {
								return nil, err
							}
							return fault.WrapConn(c), nil
						},
						MaxAttempts: 10,
						BaseDelay:   2 * time.Millisecond,
						MaxDelay:    50 * time.Millisecond,
						Seed:        int64(1000 + i),
					},
					ReplyTimeout: 3 * time.Second,
					Obs:          o,
				}
				defer links[i].Close()
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						if _, err := links[i].Report(round, fixedLagCounts(i, round)); err != nil {
							errs[i] = fmt.Errorf("region %d round %d: %w", i, round, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Stragglers may still be in flight (delayed duplicates); the run
			// has settled once the fold matches the golden hash.
			deadline := time.Now().Add(5 * time.Second)
			for srv.StateHash() != goldenHash && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := srv.StateHash(); got != goldenHash {
				t.Fatalf("state hash %08x, want golden %08x", got, goldenHash)
			}
			if !reflect.DeepEqual(srv.State(), goldenState) {
				t.Fatalf("ratio field differs from lossless run:\n got %+v\nwant %+v", srv.State(), goldenState)
			}

			snap := o.Registry().Snapshot()
			rewinds, _ := counterValue(snap, "consensus_rewinds_total")
			if rewinds < 1 {
				t.Errorf("consensus_rewinds_total = %v, want >= 1 (fault schedule produced no late censuses)", rewinds)
			}
			if corrections, _ := counterValue(snap, "consensus_ratio_corrections_total"); corrections < rewinds {
				t.Errorf("consensus_ratio_corrections_total = %v, want >= rewinds (%v)", corrections, rewinds)
			}
			if beyond, _ := counterValue(snap, "consensus_censuses_beyond_lag_total"); beyond != 0 {
				t.Errorf("consensus_censuses_beyond_lag_total = %v, want 0 (window must cover all stragglers)", beyond)
			}

			// The same verdict must be readable off the wire, as the CI chaos
			// job asserts it.
			if got := scrapeMetric(t, httpSrv.Addr(), "consensus_state_hash"); uint32(got) != goldenHash {
				t.Errorf("/metrics consensus_state_hash = %v, want %v", uint32(got), goldenHash)
			}
			if got := scrapeMetric(t, httpSrv.Addr(), "consensus_rewinds_total"); got != rewinds {
				t.Errorf("/metrics consensus_rewinds_total = %v, want %v", got, rewinds)
			}
		})
	}
}
