package shard

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// Config describes one shard coordinator's slice of the consensus tier.
type Config struct {
	// ID is the shard's index into the ring's sorted member names.
	ID int
	// Regions is the region group this shard owns (from Table.Regions).
	Regions []int
	// K is the number of decisions per census (lattice size, validation).
	K int
	// Deadline bounds the shard's round barrier: a round whose owned
	// regions have not all reported within Deadline of the first census is
	// forwarded degraded. Zero waits for the full group.
	Deadline time.Duration
	// Upstream is the batch link to the aggregation tier (required). The
	// coordinator installs its own OnCorrection handler on it.
	Upstream *edge.BatchLink
	// Logf, when non-nil, receives progress and failure logs.
	Logf func(format string, args ...interface{})
}

// Coordinator is one shard of the consensus tier: it owns the round barrier
// for its region group, forwards each completed barrier upstream as a
// single CensusBatch, adopts the aggregator's RatioBatch answer, and only
// then releases the round's waiting edges — so every ratio an edge receives
// is the aggregator's global-fold value, bit-identical to a single-server
// deployment. The shard holds no fold state of its own: its durable journal
// exists to re-forward a batch the aggregator may never have seen when the
// shard crashes between barrier completion and the upstream exchange.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	eng     *cloud.Engine // roster, round barriers, ingest, forwarded-round watermark
	ratios  []float64     // latest adopted ratio by region, for the owned ones
	obsv    *obs.Observer
	metrics coordinatorMetrics
	srv     *transport.Acceptor

	// Durability (a journal not open = in-memory only; see Open).
	journal *durable.Journal
	lastRec durable.RoundRecord // newest forwarded round — journaled, with a state directory — for re-forward and the upstream's re-send (round -1: none)
	lastSet *cloud.CensusSet    // the barrier's census set lastRec lists (nil for a recovered one: the re-forward reads it)
	idle    []*forward          // forwards done, which beginCompleteLocked reuses before it allocates
}

// forward is one frozen barrier's completion in flight: what finishForward
// needs, and run, finishForward bound to it once, the work the Complete hook
// hands the kernel. A shard has one per barrier whose forward is
// outstanding, and reuses them from round to round.
type forward struct {
	round    int
	rb       *cloud.Barrier
	degraded bool
	censuses []transport.Census
	ticket   int
	run      func()
}

type coordinatorMetrics struct {
	cloud.Counters               // the kernel's ticks, under the shard_* / lease_* names
	late            *obs.Counter // shard_late_censuses_total
	forwards        *obs.Counter // shard_forwards_total
	forwardFailures *obs.Counter // shard_forward_failures_total
	corrections     *obs.Counter // shard_ratio_corrections_total
	regionsOwned    *obs.Gauge   // shard_regions_owned
	recoveries      *obs.Counter // durable_recoveries_total
	replayRecords   *obs.Counter // journal_replay_records_total
	journalErrors   *obs.Counter // durable_journal_errors_total

	durableWait *obs.Histogram // shard_durability_wait_seconds
}

func newCoordinatorMetrics(o *obs.Observer) coordinatorMetrics {
	return coordinatorMetrics{
		Counters: cloud.Counters{
			Rounds:         o.Counter("shard_rounds_total", "shard rounds forwarded upstream and answered"),
			Degraded:       o.Counter("shard_degraded_rounds_total", "shard rounds forwarded by the deadline with owned regions missing"),
			Abandoned:      o.Counter("shard_abandoned_rounds_total", "stale shard barriers evicted when a newer round completed first"),
			Duplicates:     o.Counter("shard_duplicate_censuses_total", "duplicate censuses absorbed by a pending shard barrier"),
			BadCensus:      o.Counter("shard_decode_failures_total", "malformed frames dropped by shard connection handlers"),
			LeaseRenewals:  o.Counter("lease_renewals_total", "edge membership lease registrations and renewals"),
			LeaseEvictions: o.Counter("lease_evictions_total", "edges evicted from the shard quorum by lease expiry"),
			LeasesLive:     o.Gauge("shard_leases_live", "owned edges currently holding a live membership lease"),
			Latest:         o.Gauge("shard_round_latest", "highest round this shard has forwarded and adopted (-1 before the first)"),
			RoundDuration:  o.Histogram("shard_round_duration_seconds", "first census to adopted aggregator reply", nil),
		},
		late:            o.Counter("shard_late_censuses_total", "censuses for already-forwarded rounds, relayed upstream individually"),
		forwards:        o.Counter("shard_forwards_total", "census batches forwarded to the aggregation tier"),
		forwardFailures: o.Counter("shard_forward_failures_total", "upstream forwards that failed after the link's retries"),
		corrections:     o.Counter("shard_ratio_corrections_total", "owned regions whose corrected ratio arrived from the aggregator after a rewind"),
		regionsOwned:    o.Gauge("shard_regions_owned", "regions assigned to this shard by the hash ring"),
		recoveries:      o.Counter("durable_recoveries_total", "coordinator state recoveries from a state directory"),
		replayRecords:   o.Counter("journal_replay_records_total", "journal round records replayed during recovery"),
		journalErrors:   o.Counter("durable_journal_errors_total", "journal appends or checkpoints that failed (state kept in memory)"),
		durableWait:     o.Histogram("shard_durability_wait_seconds", "an answered forward blocked on its journal append before release (near 0 when the exchange hid the fsync)", nil),
	}
}

// NewCoordinator builds a shard coordinator for its configured region
// group. It installs itself as the Upstream link's correction handler, so
// aggregator rewind corrections for owned regions fan out to the sessions
// that report here.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("shard %d: coordinator needs an upstream batch link", cfg.ID)
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("shard %d: coordinator owns no regions", cfg.ID)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("shard %d: coordinator needs the lattice size K, got %d", cfg.ID, cfg.K)
	}
	o := obs.New()
	c := &Coordinator{
		cfg:     cfg,
		obsv:    o,
		metrics: newCoordinatorMetrics(o),
		srv:     transport.NewAcceptor(),
		journal: new(durable.Journal),
		lastRec: durable.RoundRecord{Round: -1},
	}
	if r := slices.Min(cfg.Regions); r < 0 {
		return nil, fmt.Errorf("shard %d: coordinator owns region %d", cfg.ID, r)
	}
	c.ratios = make([]float64, slices.Max(cfg.Regions)+1)
	c.eng = cloud.NewEngine(cloud.EngineConfig{
		Lock:     &c.mu,
		Name:     fmt.Sprintf("shard %d", cfg.ID),
		Members:  cfg.Regions,
		K:        cfg.K,
		Closed:   c.srv.Closed(),
		Counters: &c.metrics.Counters,
		Logf:     cfg.Logf,
		Span: func(round int) obs.Span {
			return c.obsv.Span("shard_round", obs.A("shard", cfg.ID), obs.A("round", round))
		},
		Complete: c.beginCompleteLocked,
		Ratio:    func(edge int) float64 { return c.ratios[edge] },
	})
	c.eng.Deadline = cfg.Deadline
	c.metrics.Latest.Set(-1)
	c.metrics.regionsOwned.Set(float64(len(cfg.Regions)))
	cfg.Upstream.OnCorrection = c.routeCorrection
	cfg.Upstream.Last = c.lastForward
	return c, nil
}

// Instrument re-points the coordinator's metrics at the given observer.
// Call before Serve.
func (c *Coordinator) Instrument(o *obs.Observer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsv = o
	c.metrics = newCoordinatorMetrics(o)
	c.metrics.Latest.Set(float64(c.eng.Latest()))
	c.metrics.regionsOwned.Set(float64(len(c.cfg.Regions)))
}

// Registry returns the registry behind the coordinator's metrics.
func (c *Coordinator) Registry() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obsv.Registry()
}

// Latest returns the highest round this shard has forwarded and adopted
// (-1 before the first).
func (c *Coordinator) Latest() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Latest()
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Serve accepts downstream connections (edge CloudLinks and batching load
// generators) until the listener closes, serving each with the kernel's
// session protocol. Run in a goroutine.
func (c *Coordinator) Serve(l transport.Listener) {
	ingest := c.ingest // bound once, not per connection
	c.srv.Serve(l, func(conn transport.Conn) { c.eng.ServeSession(session.Wrap(conn), ingest, nil) })
}

// Close shuts the coordinator down: pending barriers fail, connections
// close, lease timers stop, and the journal is released.
func (c *Coordinator) Close() {
	c.srv.Close(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.eng.Stop()
		_ = c.journal.Close()
	})
}

// RenewLease registers or renews an owned edge's membership lease, with
// the cloud coordinator's quorum semantics within the shard's region group
// (see cloud.Engine.Renew).
func (c *Coordinator) RenewLease(edgeID int, ttl time.Duration) error {
	return c.eng.Renew(edgeID, ttl)
}

// ingest runs one round's censuses through the kernel. Censuses that
// missed their round's forward — it had already been adopted, or its batch
// was in flight when they arrived — are relayed upstream on their own (the
// aggregator absorbs duplicates or rewinds its lag window) and the reply
// adopted, so the global fold sees them and the caller answers from it.
func (c *Coordinator) ingest(round int, censuses []transport.Census) error {
	late, err := c.eng.Submit(round, censuses, nil)
	if !late || err != nil {
		return err
	}
	c.metrics.late.Add(int64(len(censuses)))
	// The link retains what it sends; a copy keeps a session's one-census view
	// off the heap on the common path.
	return c.relay(round, append([]transport.Census(nil), censuses...))
}

// beginCompleteLocked is the kernel's Complete hook: it freezes a filled
// (or expired) barrier, starts the append of its batch on the journal's
// goroutine — a write-ahead record: the frozen censuses, written to by
// nobody — and returns the upstream exchange for the kernel to run outside
// the lock, beside the write and the fsync. Called with c.mu held.
func (c *Coordinator) beginCompleteLocked(round int, rb *cloud.Barrier, degraded bool) (after func()) {
	rb.Frozen = true
	var f *forward
	if n := len(c.idle); n > 0 {
		f, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		f = new(forward)
		f.run = func() { c.finishForward(f) }
	}
	f.round, f.rb, f.degraded, f.censuses = round, rb, degraded, rb.Sorted(round)
	f.ticket = c.journal.StartRound(durable.RoundRecord{Round: round, Degraded: degraded, Sorted: f.censuses}) // -1 without a state directory
	return f.run
}

// finishForward runs one frozen barrier's upstream exchange, waits for its
// own record's append — by ticket: a successor completed by its deadline may
// have started another — and resolves its waiters: on success the
// aggregator's ratios are adopted and the round completes; on failure the
// barrier fails without advancing the watermark, so redialing edges re-open
// the round and trigger a fresh forward. An edge's reply follows both the
// aggregator's answer and the shard's fsync, which no longer follow each
// other: DESIGN §12.5 has why no crash between them loses a census. f goes
// back for a later round's forward.
func (c *Coordinator) finishForward(f *forward) {
	round, rb, degraded, censuses, ticket := f.round, f.rb, f.degraded, f.censuses, f.ticket
	reply, err := c.upstreamReport(round, censuses)
	var journaled int
	var journalErr error
	if ticket >= 0 {
		answered := time.Now()
		journaled, journalErr = c.journal.WaitRound(ticket)
		c.metrics.durableWait.Observe(time.Since(answered).Seconds())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f.rb, f.censuses = nil, nil // pins no barrier
	c.idle = append(c.idle, f)
	defer c.eng.Thaw(rb)
	// Forward and append done, the barrier's census set goes back to the
	// engine — unless its record is now the one to re-forward: then the set
	// of the record it supersedes does.
	spent := rb.CensusSet
	rec := durable.RoundRecord{Round: round, Degraded: degraded, Sorted: censuses}
	if journalErr == nil && c.keepLocked(rec) {
		spent, c.lastSet = c.lastSet, rb.CensusSet
	}
	if ticket >= 0 {
		c.journal.Journaled(rec, journaled, journalErr)
	}
	defer c.eng.Recycle(spent)
	if err == nil {
		c.adoptReplyLocked(reply)
	}
	switch pending, _ := c.eng.Barrier(round); {
	case pending != rb:
		// The barrier resolved while the forward was in flight: a newer
		// round's forward finished first and evicted it, or the coordinator
		// shut down. Its waiters are gone; whatever the upstream answered is
		// adopted, and the watermark stays monotonic.
		if err == nil {
			c.eng.Advance(round)
		}
	case err != nil:
		c.logf("shard %d: forwarding round %d failed: %v", c.cfg.ID, round, err)
		c.eng.Fail(round, rb, fmt.Errorf("shard %d: forwarding round %d: %w", c.cfg.ID, round, err))
	default:
		c.eng.Release(round, rb, degraded)
	}
}

// relay forwards censuses upstream outside any barrier — stragglers for an
// already-forwarded round, or a recovered batch — and adopts the reply.
func (c *Coordinator) relay(round int, censuses []transport.Census) error {
	reply, err := c.upstreamReport(round, censuses)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.adoptReplyLocked(reply)
	c.mu.Unlock()
	return nil
}

// upstreamReport is one upstream batch exchange with the forward counters
// maintained.
func (c *Coordinator) upstreamReport(round int, censuses []transport.Census) (transport.RatioBatch, error) {
	c.metrics.forwards.Inc()
	reply, err := c.cfg.Upstream.Report(round, censuses)
	if err != nil {
		c.metrics.forwardFailures.Inc()
	}
	return reply, err
}

// adoptReplyLocked caches the aggregator's answered ratios for the owned
// regions. Called with c.mu held.
func (c *Coordinator) adoptReplyLocked(reply transport.RatioBatch) {
	for i, e := range reply.Edges {
		if c.eng.Owns(e) && i < len(reply.X) {
			c.ratios[e] = reply.X[i]
		}
	}
}

// routeCorrection takes one aggregator rewind as this shard's upstream link
// saw it: the owned regions' corrected ratios are adopted into the shard's
// cache, and the frame is regrouped by downstream session — each session is
// sent the regions it reports for in one frame, under the aggregator-assigned
// sequence (see cloud.Engine.PushCorrections).
func (c *Coordinator) routeCorrection(rc transport.RatioCorrection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	adopted := 0
	for i, e := range rc.Edges {
		if c.eng.Owns(e) {
			c.ratios[e] = rc.X[i]
			adopted++
		}
	}
	c.metrics.corrections.Add(int64(adopted))
	c.eng.PushCorrections(rc.Round, rc.Seq, rc.Edges, rc.X)
}

// Open attaches a per-shard durable state directory and recovers the
// forwarded-round watermark a previous process left there (see
// durable.Journal.Open). The newest journaled batch is re-forwarded upstream
// in the background: the crash may have preceded the upstream exchange, and
// the aggregator absorbs the duplicate (or rewinds) if it had already seen
// it. Call after Instrument and before Serve.
func (c *Coordinator) Open(stateDir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.journal.Open(stateDir, durable.Owner{
		Name: fmt.Sprintf("shard %d", c.cfg.ID),
		Restore: func(snap []byte) (int, error) {
			cp, err := durable.DecodeRound(snap)
			if err == nil {
				c.eng.Advance(cp.Round)
			}
			return cp.Round, err
		},
		Replay: func(rec durable.RoundRecord) (bool, error) {
			set, err := c.eng.Collect(rec)
			if err != nil {
				return false, err
			}
			c.keepLocked(durable.RoundRecord{Round: rec.Round, Degraded: rec.Degraded, Sorted: set.Sorted(rec.Round)})
			applied := rec.Round > c.eng.Latest()
			c.eng.Advance(rec.Round)
			return applied, nil
		},
		Checkpoint: c.checkpointLocked, Every: durable.CompactEvery, Observer: c.obsv, Logf: c.cfg.Logf,
		Errors: c.metrics.journalErrors, Recoveries: c.metrics.recoveries, Replayed: c.metrics.replayRecords,
	})
	if last := c.lastRec; err == nil && last.Round >= 0 {
		// Re-forward the newest batch off the serve path: the crash may have
		// raced the upstream exchange. Idempotent upstream (duplicate absorb
		// / lag-window rewind), so re-forwarding an acknowledged batch is
		// harmless.
		c.srv.Go(func() {
			if err := c.relay(last.Round, last.Sorted); err != nil {
				c.logf("shard %d: re-forwarding recovered round %d failed: %v", c.cfg.ID, last.Round, err)
				return
			}
			c.logf("shard %d: re-forwarded recovered round %d (%d regions)", c.cfg.ID, last.Round, len(last.Sorted))
		})
	}
	return err
}

// lastForward is the upstream link's Last: it hands the record to
// re-forward to keep under the lock, which is what stops finishForward
// recycling its census set mid-copy.
func (c *Coordinator) lastForward(keep func(round int, censuses []transport.Census)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastRec.Round >= 0 {
		keep(c.lastRec.Round, c.lastRec.Sorted)
	}
}

// keepLocked makes rec the record to re-forward — after a restart, or on a
// redialed upstream connection — unless a newer round's is, and reports
// whether it did. Called with c.mu held.
func (c *Coordinator) keepLocked(rec durable.RoundRecord) bool {
	if rec.Round < c.lastRec.Round {
		return false
	}
	c.lastRec = rec
	return true
}

// checkpointLocked is the journal's Checkpoint hook: the forwarded-round
// watermark — the shard holds no fold state, the aggregator owns that — as a
// round record with no censuses, keeping the newest round record journaled
// so recovery can always re-forward the last batch. Called with c.mu held.
func (c *Coordinator) checkpointLocked(dst []byte) ([]byte, []durable.RoundRecord, error) {
	var retained []durable.RoundRecord
	if c.lastRec.Round >= 0 {
		retained = append(retained, c.lastRec)
	}
	snap, err := durable.EncodeRound(durable.RoundRecord{Round: c.eng.Latest()})
	return append(dst, snap...), retained, err
}

// Drain shuts the shard down gracefully: the most advanced pending barrier
// forwards degraded with whatever censuses it holds, a final checkpoint is
// written and waited for, and the coordinator closes.
func (c *Coordinator) Drain() error {
	c.eng.Drain()
	c.mu.Lock()
	err := c.journal.Drain()
	c.mu.Unlock()
	c.Close()
	return err
}
