// Package gossip implements the edge-local consensus data plane: the edges
// of one neighborhood run the consensus rounds among themselves — exchanging
// census frames peer-to-peer over the session layer and folding a local game
// state through the same cloud.Fold core the global coordinator uses — and
// only escalate a compacted Digest frame to the cloud every K rounds. The
// cloud becomes a slow control plane: it reconciles the digests through its
// fixed-lag rewind window and answers with its current view of the members'
// ratios, which the node records for observability but never adopts into
// policy. The policy ratio an edge serves its vehicles is always the local
// fold's — that makes the census stream independent of cloud connectivity,
// so a run that loses the cloud for part of its life produces a bit-identical
// control-plane state after the backlog drains on heal.
//
// Each node journals every completed local round (and the escalation
// watermark) through internal/durable, so a killed node recovers its fold
// bit-identically and the neighborhood leader re-escalates exactly the
// rounds the cloud has not acknowledged.
//
// With Config.FailoverTTL set, leadership survives the leader too: the
// leader heartbeats the neighborhood every TTL/3, every member mirrors the
// escalation backlog, and a member that hears nothing for a full TTL
// advances the leadership epoch — promoting the rendezvous-ring successor
// (members[epoch mod len(members)]), which drains the dead leader's
// unescalated rounds to the cloud in round order. The cloud's per-
// neighborhood digest watermark adopts re-sent rounds idempotently, so a
// restarted old leader (which rejoins tentatively and is demoted by the
// successor's higher-epoch beat) can never double-fold history.
package gossip

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// Config assembles a Node. Members must include Edge; the member with the
// smallest id is the neighborhood's leader and the only escalator.
type Config struct {
	// Edge is this node's region id.
	Edge int
	// Members are the region ids of every edge in the neighborhood,
	// including Edge.
	Members []int
	// Neighborhood is this neighborhood's index, 0 <= Neighborhood < Of.
	Neighborhood int
	// Of is the total number of neighborhoods reporting to the cloud.
	Of int
	// EscalateEvery is K: the leader escalates a digest after every K-th
	// completed local round (<=1 escalates every round).
	EscalateEvery int
	// Deadline bounds each local round barrier: a round whose member
	// censuses have not all arrived within Deadline of the first completes
	// in degraded mode (0 = wait forever; a dead peer then stalls the
	// neighborhood).
	Deadline time.Duration
	// FailoverTTL enables leader failover: the leader heartbeats the
	// neighborhood every FailoverTTL/3 and a member that hears nothing for
	// a full TTL advances the leadership epoch, promoting the ring
	// successor (members[epoch mod len(members)]). Every member then
	// retains the escalation backlog so a promoted successor can drain the
	// rounds the dead leader never escalated. 0 disables failover: the
	// smallest member id leads forever (the pre-failover behavior).
	FailoverTTL time.Duration
	// MaxBacklog caps the retained escalation backlog: when more than
	// MaxBacklog completed rounds await cloud acknowledgment the oldest
	// are shed (counted by gossip_backlog_dropped_total) and permanently
	// forgone — a bounded-memory trade that breaks control-plane hash
	// equality for the shed rounds. 0 = unbounded.
	MaxBacklog int
	// ReplyTimeout bounds each peer ack and cloud digest reply wait
	// (0 = forever).
	ReplyTimeout time.Duration
	// Fold is the shared consensus fold core (required). The node takes
	// ownership and serializes access.
	Fold *cloud.Fold
	// PeerDial dials the gossip listener of another member (required).
	PeerDial func(member int) (transport.Conn, error)
	// CloudDial dials the cloud control plane for digest escalation
	// (required for the leader; a fresh connection is dialed per
	// escalation so partitions fail fast and heal cleanly).
	CloudDial func() (transport.Conn, error)
	// Logf, when non-nil, logs degraded rounds, escalation failures, and
	// recovery summaries.
	Logf func(format string, args ...interface{})
}

// Node is one edge's gossip consensus participant.
type Node struct {
	cfg      Config
	members  []int // sorted copy
	failover bool  // cfg.FailoverTTL > 0

	mu        sync.Mutex
	leader    bool // this node leads the current epoch
	epoch     int  // leadership epoch; leader = members[epoch mod len(members)]
	tentative bool // recovered self-leader holding off until a quiet TTL passes
	lastBeat  time.Time
	eng       *cloud.Engine // the hood's round barriers, ingest and watermark
	fold      *cloud.Fold
	escalated int                   // next round the leader will escalate (rounds below are acked)
	pending   []durable.RoundRecord // unacked rounds, ascending (every member retains them under failover)
	peers     map[int]*edge.PeerLink
	journal   *durable.Journal
	cloudX    float64 // latest cloud-published ratio for Edge (observability)
	cloudSeen bool
	obsv      *obs.Observer
	metrics   nodeMetrics

	srv      *transport.Acceptor
	beatOnce sync.Once
}

// nodeMetrics are the node's registry-backed instruments. Counters are
// unlabeled — several nodes instrumented into one registry sum naturally —
// while per-node gauges carry an edge label so they do not clobber each
// other.
type nodeMetrics struct {
	cloud.Counters              // the kernel's ticks, under the gossip_* names
	peerCensuses   *obs.Counter // gossip_peer_censuses_total
	late           *obs.Counter // gossip_late_peer_censuses_total
	peerSends      *obs.Counter // gossip_peer_sends_total
	sendFailures   *obs.Counter // gossip_peer_send_failures_total
	escalations    *obs.Counter // gossip_digest_escalations_total
	escFailures    *obs.Counter // gossip_escalation_failures_total
	cloudUpdates   *obs.Counter // gossip_cloud_ratio_updates_total
	journalErrs    *obs.Counter // gossip_journal_errors_total
	recoveries     *obs.Counter // gossip_recoveries_total
	replayed       *obs.Counter // gossip_replay_records_total
	failovers      *obs.Counter // gossip_failovers_total
	beatsSent      *obs.Counter // gossip_hood_beats_sent_total
	beatsRecv      *obs.Counter // gossip_hood_beats_received_total
	beatFailures   *obs.Counter // gossip_hood_beat_failures_total
	backlogDrop    *obs.Counter // gossip_backlog_dropped_total
	backlogGauge   *obs.Gauge   // gossip_escalation_backlog{edge}
}

// newNodeMetrics binds the instruments on o. gossip_state_hash{edge} is a
// collect-time gauge over stateHash, like the cloud's consensus_state_hash.
func newNodeMetrics(o *obs.Observer, edge int, stateHash func() uint32) nodeMetrics {
	e := strconv.Itoa(edge)
	r := o.Registry()
	r.GaugeVec("gossip_state_hash", "CRC-32C of the node's canonical JSON game state", "edge").With(e).
		SetFunc(func() float64 { return float64(stateHash()) })
	return nodeMetrics{
		Counters: cloud.Counters{
			Rounds:        o.Counter("gossip_local_rounds_total", "local consensus rounds folded by gossip nodes (degraded or not)"),
			Degraded:      o.Counter("gossip_degraded_rounds_total", "local rounds completed by the deadline with at least one member missing"),
			Duplicates:    o.Counter("gossip_duplicate_censuses_total", "duplicate peer censuses absorbed without changing a round's fold"),
			Latest:        r.GaugeVec("gossip_round_latest", "highest completed local round (-1 before the first)", "edge").With(e),
			RoundDuration: o.Histogram("gossip_round_duration_seconds", "first census to local round completion", nil),
		},
		peerCensuses: o.Counter("gossip_peer_censuses_total", "censuses received from neighborhood peers"),
		late:         o.Counter("gossip_late_peer_censuses_total", "peer censuses for already-completed local rounds, absorbed"),
		peerSends:    o.Counter("gossip_peer_sends_total", "censuses broadcast to neighborhood peers (including re-sends)"),
		sendFailures: o.Counter("gossip_peer_send_failures_total", "peer census broadcasts abandoned after redial attempts"),
		escalations:  o.Counter("gossip_digest_escalations_total", "digests the cloud control plane acknowledged"),
		escFailures:  o.Counter("gossip_escalation_failures_total", "digest escalations that failed (cloud unreachable or rejecting)"),
		cloudUpdates: o.Counter("gossip_cloud_ratio_updates_total", "ratio views adopted from cloud digest replies (observability only)"),
		journalErrs:  o.Counter("gossip_journal_errors_total", "gossip journal appends or checkpoints that failed (state kept in memory)"),
		recoveries:   o.Counter("gossip_recoveries_total", "gossip node state recoveries from a state directory"),
		replayed:     o.Counter("gossip_replay_records_total", "journal round records replayed during gossip recovery"),
		failovers:    o.Counter("gossip_failovers_total", "leadership promotions after a leader's heartbeats went quiet for a full TTL"),
		beatsSent:    o.Counter("gossip_hood_beats_sent_total", "leader liveness heartbeats sent to neighborhood peers"),
		beatsRecv:    o.Counter("gossip_hood_beats_received_total", "leader liveness heartbeats received (stale epochs included)"),
		beatFailures: o.Counter("gossip_hood_beat_failures_total", "heartbeat sends abandoned after redial attempts"),
		backlogDrop:  o.Counter("gossip_backlog_dropped_total", "oldest backlog rounds shed by the max-backlog cap (permanently unescalated)"),
		backlogGauge: r.GaugeVec("gossip_escalation_backlog", "completed rounds retained for digest escalation (with failover every member mirrors the leader's backlog)", "edge").With(e),
	}
}

// NewNode validates cfg and returns an idle node. Call Serve with the
// node's gossip listener, then drive rounds with LocalRound.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Fold == nil {
		return nil, fmt.Errorf("gossip: config needs a fold")
	}
	if cfg.PeerDial == nil {
		return nil, fmt.Errorf("gossip: config needs a peer dialer")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("gossip: neighborhood has no members")
	}
	members := append([]int(nil), cfg.Members...)
	sort.Ints(members)
	self := false
	for _, m := range members {
		if m == cfg.Edge {
			self = true
		}
		if m < 0 || m >= cfg.Fold.Regions() {
			return nil, fmt.Errorf("gossip: member %d outside the %d-region state", m, cfg.Fold.Regions())
		}
	}
	if !self {
		return nil, fmt.Errorf("gossip: edge %d is not in its own neighborhood %v", cfg.Edge, members)
	}
	if cfg.EscalateEvery <= 0 {
		cfg.EscalateEvery = 1
	}
	o := obs.New()
	n := &Node{
		cfg:      cfg,
		members:  members,
		failover: cfg.FailoverTTL > 0,
		leader:   members[0] == cfg.Edge,
		fold:     cfg.Fold,
		peers:    make(map[int]*edge.PeerLink),
		obsv:     o,
		srv:      transport.NewAcceptor(),
	}
	n.metrics = newNodeMetrics(o, cfg.Edge, n.StateHash)
	n.eng = cloud.NewEngine(cloud.EngineConfig{
		Lock:     &n.mu,
		Name:     fmt.Sprintf("gossip: edge %d", cfg.Edge),
		Members:  len(members),
		Owns:     n.isMember,
		K:        cfg.Fold.Decisions(),
		Closed:   n.srv.Closed(),
		Counters: &n.metrics.Counters,
		Logf:     cfg.Logf,
		Span: func(round int) *obs.Span {
			return n.obsv.Span("gossip_round", obs.A("round", round), obs.A("edge", cfg.Edge))
		},
		Complete: n.completeLocalLocked,
	})
	n.eng.Deadline = cfg.Deadline
	for _, m := range members {
		if m == cfg.Edge {
			continue
		}
		n.peers[m] = &edge.PeerLink{
			// A short dial schedule: a dead peer must cost less than the
			// round deadline, not the transport default's two-second cap.
			Dialer: &transport.Dialer{
				Dial:        func() (transport.Conn, error) { return cfg.PeerDial(m) },
				MaxAttempts: 4,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
			},
		}
	}
	n.metrics.Latest.Set(-1)
	return n, nil
}

// Instrument re-points the node's metrics at the given observer so several
// nodes (and the cloud) report through one registry. Call before Serve.
func (n *Node) Instrument(o *obs.Observer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obsv = o
	n.metrics = newNodeMetrics(o, n.cfg.Edge, n.StateHash)
	n.metrics.Latest.Set(float64(n.eng.Latest()))
	n.setBacklogLocked()
}

// setBacklogLocked publishes the backlog depth. Called with n.mu held.
func (n *Node) setBacklogLocked() {
	n.metrics.backlogGauge.Set(float64(len(n.pending)))
}

// Leader reports whether this node escalates the neighborhood's digests.
// With failover enabled leadership is epoch-based and can move; a recovered
// self-leader that is still tentatively waiting out its first TTL reports
// false.
func (n *Node) Leader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader && !n.tentative
}

// Epoch returns the node's current leadership epoch (always 0 without
// failover). The epoch's leader is members[epoch mod len(members)].
func (n *Node) Epoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// leaderAt returns the member id leading the given epoch.
func (n *Node) leaderAt(epoch int) int {
	return n.members[epoch%len(n.members)]
}

// Latest returns the highest completed local round (-1 before the first).
func (n *Node) Latest() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Latest()
}

// StateHash returns the CRC-32C witness over the node's local fold state,
// under n.mu: Fold.Hash encodes once per state change, copying memoised text
// for every value an earlier read formatted.
func (n *Node) StateHash() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fold.Hash()
}

// X returns the local fold's current sharing ratio for this node's region —
// the policy the edge serves its vehicles, regardless of cloud connectivity.
func (n *Node) X() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fold.X(n.cfg.Edge)
}

// CloudRatio returns the cloud's last published view of this region's ratio
// and whether any digest reply has been adopted yet. Observability only:
// the local fold's X drives policy.
func (n *Node) CloudRatio() (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cloudX, n.cloudSeen
}

// Pending returns how many completed rounds await cloud acknowledgment.
// Without failover only the leader retains a backlog; with failover every
// member mirrors it so a promoted successor can drain the rounds the dead
// leader never escalated.
func (n *Node) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Serve accepts peer connections on the node's gossip listener until the
// listener is torn down or the node closes. Run in a goroutine. With
// failover enabled, serving also starts the node's liveness loop: the
// leader heartbeats the neighborhood and followers watch for the beats to
// go quiet.
func (n *Node) Serve(l transport.Listener) {
	if n.failover {
		n.beatOnce.Do(func() {
			n.mu.Lock()
			n.lastBeat = time.Now()
			n.mu.Unlock()
			n.srv.Go(n.failoverLoop)
		})
	}
	n.srv.Serve(l, n.handleConn)
}

func (n *Node) handleConn(conn transport.Conn) {
	sess := session.Wrap(conn)
	defer sess.Close()
	_ = sess.Serve(map[transport.Kind]session.Handler{
		transport.KindCensus: func(m transport.Message) error {
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return sess.Ack(err)
			}
			return sess.Ack(n.SubmitPeer(census))
		},
		transport.KindHoodBeat: func(m transport.Message) error {
			var beat transport.HoodBeat
			if err := transport.Decode(m, transport.KindHoodBeat, &beat); err != nil {
				return sess.Ack(err)
			}
			return sess.Ack(n.submitBeat(beat))
		},
	}, func(m transport.Message) error {
		return sess.Ack(fmt.Errorf("gossip: unexpected %s frame on peer link", m.Kind))
	})
}

// submitBeat absorbs one leader heartbeat. Every well-formed beat is acked
// — including stale-epoch ones, so a demoted leader's in-flight beats drain
// cleanly — but only beats at or above the node's epoch move state: a
// higher epoch is adopted (demoting this node if it thought it led) and the
// expiry clock rewinds. The beat's escalation watermark prunes the mirrored
// backlog: rounds the leader's digests already acked need no successor.
func (n *Node) submitBeat(beat transport.HoodBeat) error {
	if beat.Hood != n.cfg.Neighborhood {
		return fmt.Errorf("gossip: beat for neighborhood %d on edge %d of neighborhood %d",
			beat.Hood, n.cfg.Edge, n.cfg.Neighborhood)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics.beatsRecv.Inc()
	if !n.failover || beat.Epoch < n.epoch || beat.Leader == n.cfg.Edge {
		return nil // stale (or echoed) beat: receipt is all the sender needs
	}
	if beat.Leader != n.leaderAt(beat.Epoch) {
		return fmt.Errorf("gossip: beat claims leader %d for epoch %d, ring says %d",
			beat.Leader, beat.Epoch, n.leaderAt(beat.Epoch))
	}
	if beat.Epoch > n.epoch {
		n.epoch = beat.Epoch
		if n.leader {
			n.leader = false
			n.tentative = false
			n.logf("gossip: edge %d: demoted by epoch %d beat from leader %d",
				n.cfg.Edge, beat.Epoch, beat.Leader)
		}
	}
	n.lastBeat = time.Now()
	if beat.Escalated > n.escalated {
		n.escalated = beat.Escalated
		n.prunePendingLocked()
	}
	return nil
}

// prunePendingLocked drops backlog rounds below the escalation watermark
// and refreshes the backlog gauges. Called with n.mu held.
func (n *Node) prunePendingLocked() {
	keep := n.pending[:0]
	for _, rec := range n.pending {
		if rec.Round >= n.escalated {
			keep = append(keep, rec)
		}
	}
	n.pending = keep
	n.setBacklogLocked()
}

// failoverLoop is the node's liveness clock, ticking at a third of the
// failover TTL. A leading node broadcasts a heartbeat each tick; a
// following node that has heard nothing for a full TTL advances the epoch
// and promotes itself when the ring says it is next, draining the mirrored
// backlog to the cloud. A recovered self-leader stays tentative for one
// quiet TTL first, so a successor elected while it was down can demote it
// before it escalates anything.
func (n *Node) failoverLoop() {
	interval := n.cfg.FailoverTTL / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.srv.Closed():
			return
		case <-ticker.C:
			n.tickFailover()
		}
	}
}

func (n *Node) tickFailover() {
	n.mu.Lock()
	if n.leader && !n.tentative {
		beat := transport.HoodBeat{
			Hood:      n.cfg.Neighborhood,
			Epoch:     n.epoch,
			Leader:    n.cfg.Edge,
			Escalated: n.escalated,
			TTLMillis: n.cfg.FailoverTTL.Milliseconds(),
		}
		n.mu.Unlock()
		n.broadcastBeat(beat)
		return
	}
	if time.Since(n.lastBeat) < n.cfg.FailoverTTL {
		n.mu.Unlock()
		return
	}
	if n.tentative {
		// A full TTL passed with no higher-epoch beat: the recovered
		// leadership claim stands. (If a successor promoted concurrently its
		// next beat carries a higher epoch and demotes us; the cloud's digest
		// watermark absorbs anything both of us escalate meanwhile.)
		n.tentative = false
		epoch := n.epoch
		n.mu.Unlock()
		n.logf("gossip: edge %d: confirmed leadership of epoch %d after a quiet TTL", n.cfg.Edge, epoch)
		return
	}
	n.epoch++
	n.lastBeat = time.Now()
	if n.leaderAt(n.epoch) != n.cfg.Edge {
		// Someone else's turn: wait a fresh TTL for the successor's first
		// beat before advancing again (it may also be dead).
		n.leader = false
		n.mu.Unlock()
		return
	}
	n.leader = true
	n.tentative = false
	n.metrics.failovers.Inc()
	backlog := len(n.pending)
	epoch := n.epoch
	n.mu.Unlock()
	n.logf("gossip: edge %d: promoted to leader of epoch %d (%d rounds backlogged)",
		n.cfg.Edge, epoch, backlog)
	if backlog > 0 {
		// Drain the dead leader's unescalated rounds immediately — the
		// takeover half of the failover contract. A partitioned cloud fails
		// the dial fast; the backlog stays for the next K boundary or Flush.
		n.srv.Go(func() { _ = n.escalate() })
	}
}

// broadcastBeat sends one heartbeat to every peer, concurrently. Beats are
// best-effort: an unreachable peer just counts a failure and learns the
// epoch from the next beat that lands.
func (n *Node) broadcastBeat(beat transport.HoodBeat) {
	var wg sync.WaitGroup
	for _, pl := range n.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.metrics.beatsSent.Inc()
			err := pl.Exchange(func(conn transport.Conn) error {
				return session.SendHoodBeat(conn, beat, n.cfg.ReplyTimeout)
			})
			if err != nil {
				n.metrics.beatFailures.Inc()
			}
		}()
	}
	wg.Wait()
}

// SubmitPeer folds one peer's census into the pending local round. Unlike
// the cloud's Submit it never blocks: the peer only needs receipt, not the
// round's outcome — each member folds the round itself once its own barrier
// fills. A census for a local round that already completed (degraded, or a
// re-send after a redial) is absorbed: the fold moved on.
func (n *Node) SubmitPeer(census transport.Census) error {
	one := [1]transport.Census{census}
	_, late, err := n.eng.Add(census.Round, one[:])
	if err == nil {
		n.metrics.peerCensuses.Inc()
	}
	if late {
		n.metrics.late.Inc()
	}
	return err
}

func (n *Node) isMember(edge int) bool {
	for _, m := range n.members {
		if m == edge {
			return true
		}
	}
	return false
}

// LocalRound runs this node's part of one local consensus round: it adds its
// own census to the round barrier, broadcasts the census to every peer, and
// blocks until the barrier fills (or its deadline degrades it), returning
// the region's next sharing ratio from the local fold. A census for an
// already-completed round returns the current ratio immediately. After
// Close it fails with transport.ErrClosed.
func (n *Node) LocalRound(round int, counts []int) (float64, error) {
	one := [1]transport.Census{{Edge: n.cfg.Edge, Round: round, Counts: counts}}
	rb, late, err := n.eng.Add(round, one[:])
	if err != nil {
		return 0, err
	}
	if late {
		// Completed while this node was down or behind; serve the current
		// policy so the caller catches up to Latest()+1.
		return n.X(), nil
	}

	// Broadcast outside the lock: peer barriers fill from these sends the
	// way ours fills from theirs. Sends run concurrently per peer; each
	// link serializes its own rounds, so per-peer order is preserved.
	var sendWG sync.WaitGroup
	for member, pl := range n.peers {
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			n.metrics.peerSends.Inc()
			err := pl.Exchange(func(conn transport.Conn) error {
				return session.GossipCensus(conn, n.cfg.Edge, round, counts, n.cfg.ReplyTimeout)
			})
			if err != nil {
				n.metrics.sendFailures.Inc()
				n.logf("gossip: edge %d: census to peer %d round %d: %v", n.cfg.Edge, member, round, err)
			}
		}()
	}
	sendWG.Wait()

	select {
	case <-rb.Done:
		if rb.Err != nil {
			return 0, rb.Err
		}
	case <-n.srv.Closed():
		return 0, transport.ErrClosed
	}

	n.mu.Lock()
	x := n.fold.X(n.cfg.Edge)
	boundary := n.leader && !n.tentative && (round+1)%n.cfg.EscalateEvery == 0 && len(n.pending) > 0
	n.mu.Unlock()
	if boundary {
		n.escalate()
	}
	return x, nil
}

// completeLocalLocked is the kernel's Complete hook: fold the round, journal
// it, release its waiters. The journal append fsyncs before Done closes, so
// a ratio served to a vehicle is always recoverable — the same write
// discipline as the cloud coordinator. Called with n.mu held.
func (n *Node) completeLocalLocked(round int, rb *cloud.Barrier, degraded bool) (after func()) {
	rb.Err = n.fold.Apply(rb.Censuses)
	rec := durable.RoundRecord{Round: round, Degraded: degraded, Censuses: rb.Censuses}
	// Watermark and backlog move before journaling: a compaction inside
	// persist snapshots Latest() as the checkpoint round over a state that
	// already includes this round's fold, and retains the backlog.
	n.eng.Advance(round)
	if n.leader || n.failover {
		// With failover every member mirrors the backlog: a follower promoted
		// after the leader dies must hold the rounds the leader never
		// escalated. Without failover only the leader keeps it.
		n.pending = append(n.pending, rec)
		if n.cfg.MaxBacklog > 0 && len(n.pending) > n.cfg.MaxBacklog {
			shed := len(n.pending) - n.cfg.MaxBacklog
			n.pending = append(n.pending[:0], n.pending[shed:]...)
			// The shed rounds are permanently forgone; moving the watermark
			// past them keeps recovery and beat pruning consistent with that.
			n.escalated = n.pending[0].Round
			n.metrics.backlogDrop.Add(int64(shed))
			n.logf("gossip: edge %d: backlog cap %d shed %d oldest rounds (next escalation starts at %d)",
				n.cfg.Edge, n.cfg.MaxBacklog, shed, n.escalated)
		}
	} else {
		n.escalated = round + 1
	}
	n.persistRoundLocked(rec)
	n.setBacklogLocked()
	n.eng.Release(round, rb, degraded)
	return nil
}

// Flush escalates every pending round immediately, regardless of the K
// boundary — the graceful shutdown path, so the control plane holds the
// complete history before the node exits. No-op on nodes not currently
// leading and when nothing is pending.
func (n *Node) Flush() error {
	n.mu.Lock()
	todo := len(n.pending) > 0
	lead := n.leader && !n.tentative
	n.mu.Unlock()
	if !lead || !todo {
		return nil
	}
	return n.escalate()
}

// escalate sends one Digest carrying every pending round to the cloud and,
// on acknowledgment, advances the escalation watermark and compacts the
// journal. A fresh connection is dialed per escalation: a partitioned cloud
// fails the dial fast, the backlog is kept, and the next K boundary (or
// Flush) retries. Runs on the caller's goroutine, never under n.mu.
func (n *Node) escalate() error {
	if n.cfg.CloudDial == nil {
		return fmt.Errorf("gossip: edge %d: no cloud dialer", n.cfg.Edge)
	}
	n.mu.Lock()
	if len(n.pending) == 0 || !n.leader || n.tentative {
		// A demotion can land between the boundary check and here; the new
		// leader owns the backlog now.
		n.mu.Unlock()
		return nil
	}
	d := transport.Digest{
		Neighborhood: n.cfg.Neighborhood,
		Of:           n.cfg.Of,
		Members:      append([]int(nil), n.members...),
		Rounds:       make([]transport.DigestRound, 0, len(n.pending)),
	}
	for _, rec := range n.pending {
		d.Rounds = append(d.Rounds, transport.DigestRound{
			Round: rec.Round, Degraded: rec.Degraded, Censuses: cloud.SortedCensuses(rec.Round, rec.Censuses),
		})
	}
	last := d.Rounds[len(d.Rounds)-1].Round
	n.mu.Unlock()

	conn, err := n.cfg.CloudDial()
	if err != nil {
		n.metrics.escFailures.Inc()
		n.logf("gossip: edge %d: dialing cloud for digest through round %d: %v", n.cfg.Edge, last, err)
		return err
	}
	reply, err := session.EscalateDigest(conn, d, n.cfg.ReplyTimeout)
	conn.Close()
	if err != nil {
		n.metrics.escFailures.Inc()
		n.logf("gossip: edge %d: escalating digest through round %d: %v", n.cfg.Edge, last, err)
		return err
	}

	n.mu.Lock()
	for i, e := range reply.Edges {
		if e == n.cfg.Edge && i < len(reply.X) {
			n.cloudX = reply.X[i]
			n.cloudSeen = true
			n.metrics.cloudUpdates.Inc()
		}
	}
	// Drop exactly the rounds this digest carried; rounds completed while
	// the escalation was in flight stay pending for the next boundary. The
	// watermark only ever advances: a slow ack racing a larger concurrent
	// escalation must not rewind it.
	keep := n.pending[:0]
	for _, rec := range n.pending {
		if rec.Round > last {
			keep = append(keep, rec)
		}
	}
	n.pending = keep
	if last+1 > n.escalated {
		n.escalated = last + 1
	}
	n.metrics.escalations.Inc()
	n.setBacklogLocked()
	if n.journal != nil {
		if err := n.checkpointLocked(); err != nil {
			n.metrics.journalErrs.Inc()
			n.logf("gossip: edge %d: compacting after escalation through round %d: %v", n.cfg.Edge, last, err)
		}
	}
	n.mu.Unlock()
	return nil
}

// Close shuts the node down: pending barriers fail, peer links and inbound
// connections close. It does not Flush; callers wanting the backlog on the
// cloud call Flush first.
func (n *Node) Close() {
	n.srv.Close(func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.eng.Stop()
		for _, pl := range n.peers {
			pl.Close()
		}
		if n.journal != nil {
			_ = n.journal.Close()
			n.journal = nil
		}
	})
}
