package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/lattice"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// defaultProbeBudget bounds each probe loop, so the probes of one traced
// run add about a second in all.
const defaultProbeBudget = 100 * time.Millisecond

// prober runs the probes of one traced run.
type prober struct {
	*tier
	m      metricSet
	tr     *tracer
	src    censusSource
	rounds int           // rounds the run folded; src is defined for 0..rounds-1
	budget time.Duration // per probe loop
}

// timeLoop calls fn until the budget is spent (at least minCalls times) and
// returns the mean time of one call.
func (p *prober) timeLoop(minCalls int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	calls := 0
	for calls < minCalls || time.Since(start) < p.budget {
		if err := fn(calls); err != nil {
			return 0, err
		}
		calls++
	}
	return time.Since(start) / time.Duration(calls), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

var errNoDial = errors.New("bench: probe nodes have no peers")

func noDial() (transport.Conn, error) { return nil, errNoDial }

// run times each package's public functions in isolation, on this
// workload's sizes, inputs and (halted) state directories.
func (p *prober) run() error {
	probes := []func() error{p.codec, p.fold, p.durable, p.recovery}
	if !p.w.Flood {
		probes = append(probes, p.vehicleEdge)
	}
	for _, probe := range probes {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// probeVehicleEdge times the vehicle decision rule and the edge's policy
// engine on one region's cohorts.
func (p *prober) vehicleEdge() error {
	t, m, tr := p.tier, p.m, p.tr
	nc := &scenario.NodeConfig{Beta: t.foldNC.Beta}
	var cohort []*scenario.FleetVehicle
	for _, c := range t.w.cohorts() {
		fleet, err := nc.NewFleet(scenario.FleetSpec{N: c.n, IDBase: 1 + len(cohort), Equipped: c.equipped, Seed: t.seed})
		if err != nil {
			return err
		}
		cohort = append(cohort, fleet...)
	}
	lat := lattice.NewPaper()
	shares := make([]float64, lat.K())
	for i := range shares {
		shares[i] = 1 / float64(len(shares))
	}
	x := t.foldNC.X0

	uploads := make([]transport.Upload, len(cohort))
	d, err := p.timeLoop(100, func(i int) error {
		fv := cohort[i%len(cohort)]
		if err := fv.Agent.Revise(x, shares, fv.Client.Mu); err != nil {
			return err
		}
		uploads[i%len(cohort)] = fv.Agent.BuildUpload(i)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("vehicle.revise_us", us(d))

	if deliveries := tr.samples[transport.KindDelivery]; len(deliveries) > 0 {
		table := sensor.TableIII()
		d, err := p.timeLoop(100, func(i int) error {
			var del transport.Delivery
			if err := transport.Decode(deliveries[i%len(deliveries)], transport.KindDelivery, &del); err != nil {
				return err
			}
			return cohort[i%len(cohort)].Agent.AbsorbDelivery(del, table)
		})
		if err != nil {
			return err
		}
		m.set("vehicle.absorb_us", us(d))
	}

	dist := edge.NewDistributor(lat, t.seed)
	d, err = p.timeLoop(10, func(i int) error {
		if err := dist.BeginRound(i, x); err != nil {
			return err
		}
		for _, u := range uploads {
			u.Round = i
			if err := dist.AddUpload(u); err != nil {
				return err
			}
		}
		dist.Distribute()
		dist.Census()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("edge.distribute_us", us(d))
	return nil
}

// probeCodec times the binary codec on the frames the traced window saw.
func (p *prober) codec() error {
	m, tr := p.m, p.tr
	binary := transport.Binary
	for _, kind := range sampledKinds {
		msgs := tr.samples[kind]
		if len(msgs) == 0 {
			continue // this workload sends no such frame
		}
		frames := make([][]byte, len(msgs))
		bytes := 0
		for i, msg := range msgs {
			frame, err := binary.AppendEncode(nil, msg)
			if err != nil {
				return err
			}
			frames[i] = frame
			bytes += len(frame)
		}
		var buf []byte
		enc, err := p.timeLoop(len(msgs), func(i int) error {
			var err error
			buf, err = binary.AppendEncode(buf[:0], msgs[i%len(msgs)])
			return err
		})
		if err != nil {
			return err
		}
		dec, err := p.timeLoop(len(msgs), func(i int) error {
			_, err := binary.Decode(frames[i%len(frames)])
			return err
		})
		if err != nil {
			return err
		}
		m.set("transport.encode_ns."+string(kind), float64(enc))
		m.set("transport.decode_ns."+string(kind), float64(dec))
		if kind == transport.KindCensusBatch || kind == transport.KindDigest {
			m.set("transport.frame_bytes."+string(kind), float64(bytes)/float64(len(frames)))
		}
	}
	return nil
}

// probeFold times the policy step, the linearization under it, and an
// in-process rewind, all at the workload's region count. (The forward
// fold, cloud.fold_us, is timed by the reference fold of the run.)
func (p *prober) fold() error {
	t, m, src, rounds := p.tier, p.m, p.src, p.rounds
	nc := *t.foldNC
	nc.StateDir, nc.Obs = "", nil
	model := nc.Model
	fds, err := policy.NewFDS(model, nc.Field, nc.Lambda)
	if err != nil {
		return err
	}
	state := game.NewUniformState(model.M(), model.K(), nc.X0)
	d, err := p.timeLoop(3, func(int) error {
		_, err := fds.UpdateRatios(state)
		return err
	})
	if err != nil {
		return err
	}
	m.set("policy.fds_update_us", us(d))
	d, err = p.timeLoop(100, func(i int) error {
		_, err := model.Linearize(state, i%model.M())
		return err
	})
	if err != nil {
		return err
	}
	m.set("game.linearize_us", us(d))

	// An undurable twin of the run's cloud, fed the run's censuses whole
	// rounds at a time; each iteration folds one more round and then times
	// Submit of a differing census 1..maxRewindDepth rounds behind it.
	srv, _, err := nc.NewCloud()
	if err != nil {
		return err
	}
	defer srv.Close()
	forward := func(r int) error {
		censuses := src(r % rounds) // any real round's census set will do
		batch := transport.CensusBatch{Round: r}
		for region := 0; region < t.w.Regions; region++ {
			batch.Censuses = append(batch.Censuses, transport.Census{Edge: region, Round: r, Counts: censuses[region]})
		}
		_, err := srv.SubmitBatch(batch)
		return err
	}
	next := 0
	for ; next <= maxRewindDepth; next++ {
		if err := forward(next); err != nil {
			return err
		}
	}
	var rewinding time.Duration
	calls := 0
	for start := time.Now(); calls < 3 || time.Since(start) < 2*p.budget; calls++ {
		if err := forward(next); err != nil {
			return err
		}
		region := calls % t.w.Regions
		target := next - (1 + calls%maxRewindDepth)
		counts := append([]int(nil), src(target % rounds)[region]...)
		counts[0] += 1 + calls // differs from whatever the round holds
		began := time.Now()
		if _, err := srv.Submit(transport.Census{Edge: region, Round: target, Counts: counts}); err != nil {
			return err
		}
		rewinding += time.Since(began)
		next++
	}
	m.set("cloud.rewind_us", us(rewinding/time.Duration(calls)))
	return nil
}

// probeDurable times journal appends of a round record of the workload's
// size: one appender (an fsync each), then eight under group commit.
func (p *prober) durable() error {
	t, m, src := p.tier, p.m, p.src
	payload, err := durable.EncodeRound(durable.RoundRecord{Round: 0, Censuses: src(0)})
	if err != nil {
		return err
	}
	appendUS := func(dir string, group, appenders, each int) ([]float64, error) {
		store, err := durable.Open(filepath.Join(t.dir, dir))
		if err != nil {
			return nil, err
		}
		defer store.Close()
		if group > 1 {
			store.SetGroupCommit(group, time.Millisecond)
		}
		took := make([]float64, appenders*each)
		errs := make([]error, appenders)
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					start := time.Now()
					if err := store.Append(payload); err != nil {
						errs[a] = err
						return
					}
					took[a*each+i] = us(time.Since(start))
				}
			}()
		}
		wg.Wait()
		return took, errors.Join(errs...)
	}
	single, err := appendUS("probe-journal", 1, 1, 100)
	if err != nil {
		return err
	}
	m.set("durable.append_us_p50", percentile(single, 0.50))
	m.set("durable.append_us_p99", percentile(single, 0.99))
	grouped, err := appendUS("probe-journal-group8", 8, 8, 25)
	if err != nil {
		return err
	}
	m.set("durable.append_group8_us_p50", percentile(grouped, 0.50))
	return nil
}

// probeRecovery times what a restart would pay on the halted tier's state
// directories: journal replay and each node type's Open.
func (p *prober) recovery() error {
	t, m, rounds := p.tier, p.m, p.rounds
	aggDir := filepath.Join(t.dir, "aggregator")
	if st, err := os.Stat(filepath.Join(aggDir, "checkpoint.snap")); err == nil {
		m.set("durable.checkpoint_bytes", float64(st.Size()))
	}
	store, err := durable.Open(aggDir)
	if err != nil {
		return err
	}
	start := time.Now()
	_, err = store.Replay(func([]byte) error { return nil })
	m.set("durable.replay_ms", float64(time.Since(start))/1e6)
	store.Close()
	if err != nil {
		return err
	}

	nc := *t.foldNC
	nc.StateDir, nc.Obs = "", nil
	srv, _, err := nc.NewCloud()
	if err != nil {
		return err
	}
	start = time.Now()
	err = srv.Open(aggDir)
	m.set("cloud.open_ms", float64(time.Since(start))/1e6)
	recovered := srv.Latest()
	srv.Close()
	if err != nil {
		return err
	}
	if recovered != rounds-1 {
		return fmt.Errorf("%s: cloud recovered to round %d from its journal, want %d", t.w.Name, recovered, rounds-1)
	}

	for s, c := range t.coords {
		if c == nil {
			continue
		}
		snc := scenario.Defaults(scenario.RoleShard)
		snc.Regions, snc.Shards, snc.ShardID, snc.RetryMax = t.w.Regions, t.w.Shards, s, 1
		coord, upstream, err := snc.NewShard(noDial)
		if err != nil {
			return err
		}
		start = time.Now()
		err = coord.Open(filepath.Join(t.dir, fmt.Sprintf("shard-%d", s)))
		m.set("shard.open_ms", float64(time.Since(start))/1e6)
		coord.Close() // also waits for the recovered batch's (failing) re-forward
		upstream.Close()
		if err != nil {
			return err
		}
		break // one shard is enough; they hold the same kind of journal
	}

	if t.w.Hoods > 0 {
		gnc := t.gossipConfig(0)
		node, _, err := gnc.NewGossipNode(t.hoods[gnc.GossipHood],
			func(int) (transport.Conn, error) { return nil, errNoDial }, noDial)
		if err != nil {
			return err
		}
		start = time.Now()
		err = node.Open(filepath.Join(t.dir, "gossip-0"))
		m.set("gossip.open_ms", float64(time.Since(start))/1e6)
		node.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
