// Package cloud implements the cloud-server role of Fig. 1 (step S1): it
// collects the per-region decision censuses from the edge servers (step ①),
// rebuilds the game state, runs one FDS round to optimize the sharing
// ratios, and answers each edge server with its region's new ratio
// (step ②).
package cloud

import (
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// Server is the networked cloud coordinator. Edge servers connect, send one
// Census per round, and receive the next round's Ratio once every region
// has reported — a barrier per round, matching the paper's synchronized
// policy updates. With a round deadline set, a barrier that does not fill
// in time completes in degraded mode: the FDS update runs with the
// last-known shares for the missing regions, so one dead edge cannot stall
// the rest of the system.
type Server struct {
	fold *Fold

	mu      sync.Mutex
	eng     *Engine // roster, round barriers, ingest, completed-round watermark
	m       int
	k       int // decisions per census
	logf    func(format string, args ...interface{})
	obsv    *obs.Observer
	metrics serverMetrics
	srv     *transport.Acceptor

	// Durability (a journal not open = in-memory only; see Open). Every
	// round below journaledBelow is folded and, with a state directory,
	// journaled: a digest ack covers no round beyond it (ackedLocked).
	journal        *durable.Journal
	journaledBelow int

	// Fixed-lag fusion (see SetFixedLag). window holds the last lag
	// completed rounds in round order, its entries reused as a ring;
	// correctionSeq totally orders the ratio corrections rewinds publish.
	// The rest is a rewind's scratch, reused from rewind to rewind.
	lag           int
	window        []*lagEntry
	correctionSeq int64
	corrEdges     []int               // the fan-out's regions
	corrX         []float64           // and their ratios
	skip          []bool              // the fan-out's submitters, one per region
	div           []policy.Divergence // refoldLocked's marks, one per region
	liveMem       policy.FDSMemory    // refoldLocked's copy of the live controller memory

	// Digest reconciliation (see SubmitDigest). A pending round's barrier
	// marks which neighborhoods have reported it; a round folds once every
	// neighborhood has. digestMark[h] is neighborhood h's
	// monotonic escalation watermark: every digest round below it has
	// already been adopted, so a re-sent backlog — an old leader retrying
	// after a lost ack, or a failed-over successor draining the same
	// journal-reconstructed rounds — folds idempotently instead of leaning
	// on the rewind window. Persisted in the checkpoint. digestOf is the
	// neighborhood count the first accepted digest fixed (0 until then); it
	// is not persisted, so a restarted cloud learns it again.
	digestMark map[int]int
	digestOf   int
}

// serverMetrics are the coordinator's registry-backed instruments (see the
// naming convention in package obs).
type serverMetrics struct {
	Counters                   // the kernel's ticks, under the consensus_* / lease_* names
	late          *obs.Counter // consensus_late_censuses_total
	recoveries    *obs.Counter // durable_recoveries_total
	replayRecords *obs.Counter // journal_replay_records_total
	journalErrors *obs.Counter // durable_journal_errors_total
	rewinds       *obs.Counter // consensus_rewinds_total
	replayed      *obs.Counter // consensus_replayed_rounds_total
	refolded      *obs.Counter // consensus_refolded_regions_total
	orphans       *obs.Counter // journal_corrected_orphans_total
	beyondLag     *obs.Counter // consensus_censuses_beyond_lag_total
	corrections   *obs.Counter // consensus_ratio_corrections_total
	lagDepth      *obs.Gauge   // consensus_lag_window_depth
	digests       *obs.Counter // consensus_digests_total
	digestRounds  *obs.Counter // consensus_digest_rounds_total
	digestSkipped *obs.Counter // consensus_digest_rounds_skipped_total

	durableWait *obs.Histogram // consensus_durability_wait_seconds
}

// newServerMetrics binds the instruments on o; consensus_state_hash is a
// collect-time gauge over stateHash, so no round pays for the witness.
func newServerMetrics(o *obs.Observer, stateHash func() uint32) serverMetrics {
	o.Gauge("consensus_state_hash", "CRC-32C of the canonical JSON game state (bit-identity check)").
		SetFunc(func() float64 { return float64(stateHash()) })
	return serverMetrics{
		Counters: Counters{
			Rounds:         o.Counter("consensus_rounds_total", "consensus rounds whose FDS update ran (degraded or not)"),
			Degraded:       o.Counter("consensus_degraded_rounds_total", "rounds completed by the deadline with at least one region missing"),
			Abandoned:      o.Counter("consensus_abandoned_rounds_total", "stale round barriers evicted when a newer round completed first"),
			Duplicates:     o.Counter("consensus_duplicate_censuses_total", "duplicate censuses absorbed without changing a round's fold"),
			Future:         o.Counter("consensus_future_censuses_total", "censuses rejected for exceeding the round skew bound"),
			BadCensus:      o.Counter("consensus_decode_failures_total", "malformed frames dropped by connection handlers"),
			LeaseRenewals:  o.Counter("lease_renewals_total", "edge membership lease registrations and renewals"),
			LeaseEvictions: o.Counter("lease_evictions_total", "edges evicted from the barrier quorum by lease expiry"),
			LeasesLive:     o.Gauge("cloud_leases_live", "edges currently holding a live membership lease"),
			Latest:         o.Gauge("consensus_round_latest", "highest completed consensus round (-1 before the first)"),
			RoundDuration:  o.Histogram("consensus_round_duration_seconds", "first census to barrier completion", nil),
		},
		late:          o.Counter("consensus_late_censuses_total", "censuses for already-completed rounds, answered with the current ratio"),
		recoveries:    o.Counter("durable_recoveries_total", "coordinator state recoveries from a state directory"),
		replayRecords: o.Counter("journal_replay_records_total", "journal round records replayed during recovery"),
		journalErrors: o.Counter("durable_journal_errors_total", "journal appends or checkpoints that failed (state kept in memory)"),
		durableWait:   o.Histogram("consensus_durability_wait_seconds", "a folded round blocked on its journal append before release (near 0 when the fold hid the fsync)", nil),
		rewinds:       o.Counter("consensus_rewinds_total", "fixed-lag rewinds triggered by late censuses inside the window"),
		replayed:      o.Counter("consensus_replayed_rounds_total", "rounds re-folded during fixed-lag rewinds"),
		refolded:      o.Counter("consensus_refolded_regions_total", "regions whose ratio a rewind recomputed, summed over its replayed rounds (the rest kept the recorded result)"),
		orphans:       o.Counter("journal_corrected_orphans_total", "Corrected journal records skipped at recovery because no buffered round was left to merge them into"),
		beyondLag:     o.Counter("consensus_censuses_beyond_lag_total", "late censuses outside the lag window, answered from current state"),
		corrections:   o.Counter("consensus_ratio_corrections_total", "regions whose corrected ratio was published to their session after a rewind"),
		lagDepth:      o.Gauge("consensus_lag_window_depth", "completed rounds currently buffered in the fixed-lag window"),
		digests:       o.Counter("consensus_digests_total", "gossip digests reconciled from neighborhood leaders"),
		digestRounds:  o.Counter("consensus_digest_rounds_total", "rounds carried by reconciled gossip digests"),
		digestSkipped: o.Counter("consensus_digest_rounds_skipped_total", "digest rounds below a neighborhood's escalation watermark, adopted idempotently"),
	}
}

// NewServer builds a cloud server steering toward the FDS controller's
// desired field, starting from the given state (typically uniform
// distributions at an initial ratio).
func NewServer(f *policy.FDS, initial *game.State) (*Server, error) {
	fold, err := NewFold(f, initial)
	if err != nil {
		return nil, err
	}
	o := obs.New()
	s := &Server{
		fold:       fold,
		m:          fold.Regions(),
		k:          fold.Decisions(),
		obsv:       o,
		srv:        transport.NewAcceptor(),
		journal:    new(durable.Journal),
		digestMark: make(map[int]int),
		div:        make([]policy.Divergence, fold.Regions()),
		skip:       make([]bool, fold.Regions()),
	}
	s.metrics = newServerMetrics(o, s.StateHash)
	regions := make([]int, s.m)
	for i := range regions {
		regions[i] = i
	}
	s.eng = NewEngine(EngineConfig{
		Lock:     &s.mu,
		Name:     "cloud",
		Members:  regions,
		K:        s.k,
		Closed:   s.srv.Closed(),
		Counters: &s.metrics.Counters,
		Logf:     s.logfLocked,
		Span:     func(round int) obs.Span { return s.obsv.Span("consensus_round", obs.A("round", round)) },
		Complete: s.completeRoundLocked,
		Ratio:    fold.X,
	})
	s.metrics.Latest.Set(-1)
	return s, nil
}

// Latest returns the highest completed round (-1 before the first). After
// Open recovered a state directory, this is the round recovery resumed
// from: the next barrier to complete is Latest()+1.
func (s *Server) Latest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Latest()
}

// Instrument re-points the server's metrics and round spans at the given
// observer, so several components can report through one registry (cpnode's
// /metrics endpoint). Call before Serve; counters already accumulated on the
// default private registry are not carried over.
func (s *Server) Instrument(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsv = o
	s.metrics = newServerMetrics(o, s.StateHash)
	s.metrics.Latest.Set(float64(s.eng.Latest()))
	s.metrics.lagDepth.Set(float64(len(s.window)))
}

// Registry returns the registry behind the server's metrics (the private
// default unless Instrument installed a shared one).
func (s *Server) Registry() *obs.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsv.Registry()
}

// SetRoundDeadline bounds every round barrier: a round whose censuses have
// not all arrived within d of the first one completes in degraded mode
// with last-known shares for the missing regions. Zero (the default)
// restores the unbounded barrier.
func (s *Server) SetRoundDeadline(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.Deadline = d
}

// SetLogf installs a logger for dropped frames and degraded rounds
// (default: silent, counters only).
func (s *Server) SetLogf(logf func(format string, args ...interface{})) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logf = logf
}

// logfLocked logs through the installed logger. Called with s.mu held.
func (s *Server) logfLocked(format string, args ...interface{}) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// State returns a snapshot of the cloud's current view of the game state.
func (s *Server) State() *game.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.State().Clone()
}

// Converged reports whether the current state satisfies the desired field.
func (s *Server) Converged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Converged()
}

// Serve accepts edge-server connections until the listener is torn down or
// the server closes (see transport.Acceptor), serving each with the
// kernel's session protocol, digests included. Run in a goroutine.
func (s *Server) Serve(l transport.Listener) {
	ingest, digest := s.ingest, s.SubmitDigest // bound once, not per connection
	s.srv.Serve(l, func(conn transport.Conn) { s.eng.ServeSession(session.Wrap(conn), ingest, digest) })
}

// Close shuts the server down without flushing a final checkpoint — the
// crash path; see Drain for the graceful one. Pending barriers fail, open
// connections close, lease timers stop, and the journal (already fsynced
// through the last completed round) is released.
func (s *Server) Close() {
	s.srv.Close(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.eng.Stop()
		_ = s.journal.Close()
	})
}

// RenewLease registers or renews an edge server's membership lease (see
// Engine.Renew): for ttl the edge counts toward every round barrier's
// quorum, and once any edge holds a lease a lapsed one no longer stalls it.
func (s *Server) RenewLease(edgeID int, ttl time.Duration) error { return s.eng.Renew(edgeID, ttl) }

// LiveLeases returns the ids of edges currently holding a live lease.
func (s *Server) LiveLeases() []int { return s.eng.LiveLeases() }

// Submit records one region's census for a round and blocks until every
// region has reported — or, with a round deadline set, until the deadline
// completes the barrier in degraded mode — then returns the region's next
// sharing ratio. A census for an already-completed round returns the
// region's current ratio immediately, so a reconnecting edge catches up
// without blocking. It is the transport-independent core of the
// coordinator (the in-process simulator calls it directly), and a
// one-census call into the same path as SubmitBatch.
func (s *Server) Submit(census transport.Census) (float64, error) {
	one := [1]transport.Census{census}
	if err := s.ingest(census.Round, one[:]); err != nil {
		return 0, err
	}
	return s.eng.Ratio(census.Edge), nil
}

// SubmitBatch records a whole region group's censuses for one round in a
// single call — the aggregation tier's entry point for shard coordinators
// and multiplexing load generators. All censuses must carry the batch's
// round; any malformed census rejects the whole batch before anything is
// folded, so a batch is applied atomically or not at all. The call blocks
// like Submit until the round's barrier completes, then answers every
// batched region's next ratio in one RatioBatch.
func (s *Server) SubmitBatch(batch transport.CensusBatch) (reply transport.RatioBatch, err error) {
	if err = s.ingest(batch.Round, batch.Censuses); err == nil {
		s.eng.RatioBatch(&reply, batch.Round, batch.Censuses)
	}
	return reply, err
}

// ingest runs one round's censuses through the kernel and, when the round
// had already completed (possibly degraded, without these regions),
// resolves them the cloud's way: inside the lag window the fold rewinds and
// re-propagates so every subsequent published ratio matches what a lossless
// network would have produced — the submitters read theirs from the
// resulting state, every other connected edge is pushed a correction —
// and beyond it the censuses are folded away, the degraded legacy path.
func (s *Server) ingest(round int, censuses []transport.Census) error {
	late, err := s.eng.Submit(round, censuses, nil)
	if !late {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lateLocked(round, censuses) {
		s.pushCorrectionsLocked(censuses)
	}
	return nil
}

// completeRoundLocked is the kernel's Complete hook: journal the round and
// fold it, at once, then release its waiters. The record is write-ahead — the
// round's censuses, which nothing writes to from here on — so its append runs
// on the journal's goroutine beside the fold; if a crash leaves it durable
// and the fold not run, recovery replays it through the same fold (DESIGN
// §10.2). The round's census set then goes to the lag window, and the one
// leaving the window back to the engine — without a window, the round's own,
// once fold and journal are through with it. Called with s.mu held, and kept
// throughout.
func (s *Server) completeRoundLocked(round int, b *Barrier, degraded bool) (after func()) {
	spent := b.CensusSet
	if s.lag > 0 {
		// Snapshot the pre-fold state so a late census can rewind this round.
		spent = s.pushWindowLocked(round, b.CensusSet, degraded)
	}
	rec := durable.RoundRecord{Round: round, Degraded: degraded, Sorted: b.Sorted(round)}
	ticket := s.journal.StartRound(rec) // -1 without a state directory
	b.Err = s.fold.ApplySet(b.CensusSet)
	// Advance the watermark before the cadence checkpoint: it snapshots
	// Latest() as the checkpoint round, and the state it captures already
	// includes this round's fold.
	s.eng.Advance(round)
	// Released means folded and fsynced: a ratio answered to an edge must
	// never be lost to a crash the edge did not see.
	if ticket < 0 {
		s.journaledBelow = round + 1
	} else {
		folded := time.Now()
		n, err := s.journal.WaitRound(ticket)
		s.metrics.durableWait.Observe(time.Since(folded).Seconds())
		if s.journal.Journaled(rec, n, err); err == nil { // a failed round is acked with the next that journals
			s.journaledBelow = round + 1
		}
	}
	s.eng.Release(round, b, degraded)
	s.eng.Recycle(spent)
	return nil
}
