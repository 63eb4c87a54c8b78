package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// stamps are the driver-side timestamps of one round, taken on traced runs
// only. Reporters are the edges of a fleet or the links of a flood.
type stamps struct {
	start, end time.Time
	runEnd     []time.Time // per edge: Server.RunRound returned (zero on a flood)
	repStart   []time.Time // per reporter: the uplink call began
	repEnd     []time.Time
}

func (t *tier) reporters() int {
	if t.w.Flood {
		return len(t.links)
	}
	return len(t.edges)
}

func (t *tier) newStamps() *stamps {
	n := t.reporters()
	return &stamps{runEnd: make([]time.Time, n), repStart: make([]time.Time, n), repEnd: make([]time.Time, n)}
}

// uplinkSpan names the span around a reporter's call into its consensus
// tier.
func (t *tier) uplinkSpan() string {
	switch {
	case t.w.Hoods > 0:
		return "gossip.local_round"
	case t.w.Flood:
		return "edge.batch_report"
	default:
		return "edge.report"
	}
}

// round drives round r as a closed loop with one round in flight: it
// returns once every reporter holds its next ratio. It reports the round's
// wall time and how many of its region reports were attempted and failed.
func (t *tier) round(r int, st *stamps) (d time.Duration, attempted, failed int) {
	if t.w.Flood {
		return t.floodRound(r, st)
	}
	return t.fleetRound(r, st)
}

func (t *tier) fleetRound(r int, st *stamps) (time.Duration, int, int) {
	censuses := make([][]int, len(t.edges))
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, en := range t.edges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			en.mu.Lock()
			if en.hasCorr {
				en.x, en.hasCorr = en.corrX, false
			}
			x := en.x
			en.mu.Unlock()

			counts, err := en.srv.RunRound(r, x, edgeRoundTimeout)
			if st != nil {
				st.runEnd[i] = time.Now()
				st.repStart[i] = st.runEnd[i]
			}
			if err != nil {
				failed.Add(1)
				return
			}
			censuses[i] = counts
			var newX float64
			if en.node != nil {
				newX, err = en.node.LocalRound(r, counts)
			} else {
				newX, err = en.link.Report(r, counts)
			}
			if st != nil {
				st.repEnd[i] = time.Now()
			}
			if err != nil {
				failed.Add(1)
				return
			}
			en.mu.Lock()
			if !en.hasCorr { // a correction racing in wins over the reply
				en.x = newX
			}
			en.mu.Unlock()
		}()
	}
	wg.Wait()
	end := time.Now()
	if st != nil {
		st.start, st.end = start, end
	}
	t.censusLog = append(t.censusLog, censuses)
	return end.Sub(start), len(t.edges), int(failed.Load())
}

func (t *tier) floodRound(r int, st *stamps) (time.Duration, int, int) {
	pool := t.flood.pool[r%floodPool]
	for _, fl := range t.links {
		for j, region := range fl.regions {
			fl.censuses[j] = transport.Census{Edge: region, Round: r, Counts: pool[region]}
		}
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, fl := range t.links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st != nil {
				st.repStart[i] = time.Now()
			}
			reply, err := fl.link.Report(r, fl.censuses)
			if st != nil {
				st.repEnd[i] = time.Now()
			}
			if err != nil || len(reply.X) != len(fl.censuses) {
				failed.Add(int64(len(fl.censuses)))
			}
		}()
	}
	wg.Wait()
	attempted := t.w.Regions
	if t.w.Rewind && r >= maxRewindDepth {
		// The late census closes the round: the next batch would queue
		// behind it on the link anyway.
		lc := t.flood.late[r]
		target := r - lc.depth
		attempted++
		_, err := t.links[t.flood.owner[lc.region]].link.Report(target,
			[]transport.Census{{Edge: lc.region, Round: target, Counts: lc.counts}})
		if err != nil {
			failed.Add(1)
		}
	}
	end := time.Now()
	if st != nil {
		st.start, st.end = start, end
	}
	return end.Sub(start), attempted, int(failed.Load())
}

// flush drains every gossip leader's escalation backlog, so the cloud has
// folded all local rounds before its hash is read.
func (t *tier) flush() (time.Duration, error) {
	start := time.Now()
	for _, en := range t.edges {
		if en.node != nil {
			if err := en.node.Flush(); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// window is one measured stretch of rounds.
type window struct {
	first, rounds     int
	elapsed           time.Duration // wall time of the window, calibration units taken out
	ms                []float64     // wall time of each round
	calibMS           []float64     // wall time of each calibration unit run between the rounds
	attempted, failed int
	cpu               time.Duration // process user+sys, calibration units taken out
	mallocs           uint64
	before, after     []obs.Point // registry snapshots bracketing the window
	peakRSSKiB        int64       // process high-water mark at the end of the window

	// Traced windows alternate blocks of traced and untraced rounds, so
	// the two populations see the same machine and the same stretch of the
	// fleet's history; stamps cover the traced rounds, baseMS the others.
	stamps []*stamps
	baseMS []float64
}

// traceBlock is how many consecutive rounds a traced window keeps tracing
// on, then off.
const traceBlock = 25

// processUsage is the process's user+sys CPU so far and its resident-set
// high-water mark (KiB on Linux).
func processUsage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// run drives rounds first, first+1, ... until limit rounds are done (limit
// > 0) or the duration has passed, whichever is first. With a tracer it
// traces every other block of traceBlock rounds. With a calibrator it times
// one calibration unit before the first round and then every calibEvery,
// between rounds, so the samples see the machine the rounds saw.
func (t *tier) run(first, limit int, d time.Duration, tr *tracer, cal *calibrator) *window {
	w := &window{first: first}
	if limit <= 0 || first+limit > maxRounds {
		limit = maxRounds - first
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs
	w.before = t.obs.Registry().Snapshot()
	cpu0, _ := processUsage()
	// Where the live hash is final after each round (no rewinds, no digest
	// lag), keep it: a mismatch can then name the first diverging round.
	var hash *obs.Gauge
	if !t.w.Rewind && t.w.Hoods == 0 {
		hash = t.hashGauge()
	}
	var calibWall, calibCPU time.Duration
	var lastCalib time.Time
	start := time.Now()
	for w.rounds < limit && (d <= 0 || time.Since(start)-calibWall < d) {
		if cal != nil && time.Since(lastCalib) >= calibEvery {
			wall, cpu := cal.unit()
			w.calibMS = append(w.calibMS, float64(wall)/1e6)
			calibWall += wall
			calibCPU += cpu
			lastCalib = time.Now()
		}
		var st *stamps
		if tr != nil && (w.rounds/traceBlock)%2 == 0 {
			tr.on.Store(true)
			st = t.newStamps()
		}
		took, attempted, failed := t.round(first+w.rounds, st)
		w.ms = append(w.ms, float64(took)/1e6)
		w.attempted += attempted
		w.failed += failed
		switch {
		case st != nil:
			tr.on.Store(false)
			w.stamps = append(w.stamps, st)
			tr.record(first+w.rounds, st, t.uplinkSpan())
		case tr != nil:
			w.baseMS = append(w.baseMS, float64(took)/1e6)
		}
		if hash != nil {
			t.hashChain = append(t.hashChain, uint32(hash.Value()))
		}
		w.rounds++
	}
	w.elapsed = time.Since(start) - calibWall
	cpu1, rss := processUsage()
	w.cpu, w.peakRSSKiB = cpu1-cpu0-calibCPU, rss
	w.after = t.obs.Registry().Snapshot()
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - w.mallocs
	return w
}

// sumOf adds up a counter's series (or a histogram's Sum) across labels.
func sumOf(points []obs.Point, name string) float64 {
	total := 0.0
	for _, p := range points {
		if p.Name != name {
			continue
		}
		if p.Type == obs.TypeHistogram {
			total += p.Sum
		} else {
			total += p.Value
		}
	}
	return total
}

// countOf adds up a histogram's observation count across labels.
func countOf(points []obs.Point, name string) float64 {
	total := 0.0
	for _, p := range points {
		if p.Name == name {
			total += float64(p.Count)
		}
	}
	return total
}

// delta is a counter's (or histogram sum's) growth over the window.
func (w *window) delta(name string) float64 { return sumOf(w.after, name) - sumOf(w.before, name) }

// perRound is delta spread over the window's rounds.
func (w *window) perRound(name string) float64 { return w.delta(name) / float64(w.rounds) }

// meanMS is the mean of a seconds-histogram's observations in the window.
func (w *window) meanMS(name string) float64 {
	n := countOf(w.after, name) - countOf(w.before, name)
	if n == 0 {
		return 0
	}
	return w.delta(name) / n * 1e3
}
