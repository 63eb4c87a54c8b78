package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// stages are the per-round driver-visible stage durations of a traced
// window, in ms. ahead and commit partition each round exactly:
//
//	round = ahead + commit
//	ahead  = last uplink call start - round start  (= max edge.run_round on a fleet)
//	commit = round end - last uplink call start    (release, fold, fsync, reply, wire)
type stages struct {
	round, ahead, commit []float64 // one per round
	skew                 []float64 // last - first Server.RunRound end, per round
	barrierWait          []float64 // last - first uplink call start, per round
	runRound, uplink     []float64 // one per reporter per round
}

func stagesOf(all []*stamps) *stages {
	s := &stages{}
	for _, st := range all {
		ms := func(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }
		firstRep, lastRep := st.repStart[0], st.repStart[0]
		var firstRun, lastRun time.Time
		for i := range st.repStart {
			if st.repStart[i].Before(firstRep) {
				firstRep = st.repStart[i]
			}
			if st.repStart[i].After(lastRep) {
				lastRep = st.repStart[i]
			}
			if !st.repEnd[i].IsZero() {
				s.uplink = append(s.uplink, ms(st.repStart[i], st.repEnd[i]))
			}
			if end := st.runEnd[i]; !end.IsZero() {
				s.runRound = append(s.runRound, ms(st.start, end))
				if firstRun.IsZero() || end.Before(firstRun) {
					firstRun = end
				}
				if end.After(lastRun) {
					lastRun = end
				}
			}
		}
		s.round = append(s.round, ms(st.start, st.end))
		s.ahead = append(s.ahead, ms(st.start, lastRep))
		s.commit = append(s.commit, ms(lastRep, st.end))
		s.barrierWait = append(s.barrierWait, ms(firstRep, lastRep))
		if !firstRun.IsZero() {
			s.skew = append(s.skew, ms(firstRun, lastRun))
		}
	}
	return s
}

// sumGap is how far the stage medians' sum is from the round median, as a
// share of the round median. Each round's stages add up exactly, so their
// means do too; medians of a right-skewed commit stage do not quite.
func (s *stages) sumGap() float64 {
	round := median(s.round)
	if round == 0 {
		return 0
	}
	return math.Abs(median(s.ahead)+median(s.commit)-round) / round
}

// runTraced measures the per-layer metrics: one window that alternates
// traced and untraced blocks of rounds (the untraced ones are the overhead
// baseline), then the probes on the halted tier's inputs and state
// directories.
func runTraced(w workload, o runOpts) (*result, error) {
	res := &result{Workload: w.Name, Seed: o.seed, Traced: true, Metrics: newMetricSet(perLayer)}
	tr := newTracer()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	t, _, err := setUp(w, o, tr)
	if err != nil {
		return nil, err
	}
	defer t.close()

	marks := t.watermarks()
	window := time.Duration(o.seconds * float64(time.Second))
	win := t.run(w.Warmup, o.rounds, window*3/4, tr, cal)
	if cal.err != nil {
		return nil, cal.err
	}
	res.CalibMS = median(win.calibMS)
	flushed, err := t.flush()
	if err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: flush: %v", w.Name, err))
	}
	ref := t.finish(res, win, marks)
	t.halt()

	m := res.Metrics
	st := stagesOf(win.stamps)
	m.set("bench.stage_sum_gap", st.sumGap())
	m.set("bench.calib_unit_ms", res.CalibMS)
	rounds := float64(win.rounds)            // registry counters run in every round
	tracedRounds := float64(len(win.stamps)) // the wrappers count in traced rounds only

	if !w.Flood {
		m.set("edge.run_round_ms_p50", percentile(st.runRound, 0.50))
		m.set("edge.run_round_ms_p99", percentile(st.runRound, 0.99))
		m.set("edge.run_round_slowest_ms_p50", median(st.ahead))
		m.set("edge.skew_ms_p50", median(st.skew))
		m.set("edge.uploads_per_round", win.perRound("edge_round_uploads_total"))
	}
	if w.Hoods > 0 {
		m.set("gossip.local_round_ms_p50", percentile(st.uplink, 0.50))
		m.set("gossip.local_round_ms_p99", percentile(st.uplink, 0.99))
		m.set("gossip.peer_sends_per_round", win.perRound("gossip_peer_sends_total"))
		m.set("gossip.escalations_per_round", win.perRound("gossip_digest_escalations_total"))
		m.set("gossip.beats_per_round", win.perRound("gossip_hood_beats_sent_total"))
		m.set("gossip.flush_ms", float64(flushed)/1e6)
	} else {
		m.set("edge.report_ms_p50", percentile(st.uplink, 0.50))
		m.set("edge.report_ms_p99", percentile(st.uplink, 0.99))
	}
	for class, name := range linkClassNames {
		m.set("transport.msgs_per_round."+name, float64(tr.frames[class].Load())/tracedRounds)
	}
	sends := tr.sendSamples()
	m.set("transport.send_us_p50", percentile(sends, 0.50))
	m.set("transport.send_us_p99", percentile(sends, 0.99))
	encodeMS := win.perRound("transport_codec_encode_seconds") * 1e3
	decodeMS := win.perRound("transport_codec_decode_seconds") * 1e3
	m.set("transport.encode_ms_per_round", encodeMS)
	m.set("transport.decode_ms_per_round", decodeMS)
	if w.Shards > 0 {
		m.set("shard.round_span_ms", win.meanMS("shard_round_duration_seconds"))
		m.set("shard.forwards_per_round", win.perRound("shard_forwards_total"))
		m.set("shard.late_singles_per_round", win.perRound("shard_late_censuses_total"))
	}
	m.set("cloud.barrier_wait_ms_p50", median(st.barrierWait))
	m.set("cloud.commit_ms_p50", percentile(st.commit, 0.50))
	m.set("cloud.commit_ms_p99", percentile(st.commit, 0.99))
	m.set("cloud.round_span_ms", win.meanMS("consensus_round_duration_seconds"))
	rewinds := win.delta("consensus_rewinds_total")
	m.set("cloud.rewinds_per_round", rewinds/rounds)
	if rewinds > 0 {
		m.set("cloud.replayed_per_rewind", win.delta("consensus_replayed_rounds_total")/rewinds)
	}
	m.set("cloud.corrections_per_round", win.perRound("consensus_ratio_corrections_total"))
	if ref != nil {
		m.set("cloud.fold_us", ref.foldUS)
		m.set("policy.converged_round", float64(ref.convergedRound))
	}
	if len(win.baseMS) > 0 {
		m.set("bench.trace_overhead_share", median(st.round)/median(win.baseMS)-1)
	}

	p := &prober{tier: t, m: m, tr: tr, src: t.censusAt(res.total), rounds: res.total, budget: o.probeBudget}
	if err := p.run(); err != nil {
		return nil, err
	}

	// The share of the traced window's CPU the probed functions do not
	// explain: kernel, runtime, scheduling and everything unprobed. CPU is
	// the base because it adds up across the parallel edges; wall time does
	// not.
	vehicles := float64(w.Regions * (w.Taxi + w.Transit))
	folds := 1.0
	if w.Hoods > 0 {
		folds += float64(w.Regions) // every gossip node folds its own copy
	}
	explained := encodeMS + decodeMS +
		(vehicles*(m["vehicle.revise_us"].Value+m["vehicle.absorb_us"].Value)+
			float64(len(t.edges))*m["edge.distribute_us"].Value+
			folds*m["cloud.fold_us"].Value+
			m["cloud.rewinds_per_round"].Value*m["cloud.rewind_us"].Value)/1e3
	m.set("bench.unattributed_share", 1-explained/(float64(win.cpu)/1e6/rounds))

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, err
		}
		if err := tr.writeSpans(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
