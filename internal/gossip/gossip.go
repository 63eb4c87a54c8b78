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
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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
	sets      []*cloud.CensusSet    // pending[i]'s census set, its list's storage
	reading   int                   // escalations encoding the backlog's lists outside n.mu
	senders   []*peerSender         // one per peer, by member id; fixed after NewNode
	censusFan fan                   // LocalRound's fan-outs to the senders
	beatFan   fan                   // the failover clock's beats
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
	for _, m := range members {
		if m < 0 || m >= cfg.Fold.Regions() {
			return nil, fmt.Errorf("gossip: member %d outside the %d-region state", m, cfg.Fold.Regions())
		}
	}
	if !slices.Contains(members, cfg.Edge) {
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
		journal:  new(durable.Journal),
		obsv:     o,
		srv:      transport.NewAcceptor(),
	}
	n.metrics = newNodeMetrics(o, cfg.Edge, n.StateHash)
	n.eng = cloud.NewEngine(cloud.EngineConfig{
		Lock:     &n.mu,
		Name:     fmt.Sprintf("gossip: edge %d", cfg.Edge),
		Members:  members,
		K:        cfg.Fold.Decisions(),
		Closed:   n.srv.Closed(),
		Counters: &n.metrics.Counters,
		Logf:     cfg.Logf,
		Span: func(round int) obs.Span {
			return n.obsv.Span("gossip_round", obs.A("round", round), obs.A("edge", cfg.Edge))
		},
		Complete: n.completeLocalLocked,
	})
	n.eng.Deadline = cfg.Deadline
	n.censusFan.done, n.beatFan.done = make(chan struct{}, 1), make(chan struct{}, 1)
	for _, m := range members {
		if m != cfg.Edge {
			n.startSender(m)
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
	p := &peerConn{node: n, sess: session.Wrap(conn)}
	defer p.sess.Close()
	_ = p.sess.Serve(p.handle)
}

// peerConn is one inbound peer link.
type peerConn struct {
	node *Node
	sess *session.Session
}

// handle serves one inbound frame: a census or a heartbeat is acked with
// what absorbing it said, a malformed frame or one of another kind with its
// error, and the link goes on.
func (p *peerConn) handle(m transport.Message) error {
	switch m.Kind {
	case transport.KindCensus:
		var census transport.Census
		if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
			return p.sess.Ack(err)
		}
		return p.sess.Ack(p.node.SubmitPeer(census))
	case transport.KindHoodBeat:
		var beat transport.HoodBeat
		if err := transport.Decode(m, transport.KindHoodBeat, &beat); err != nil {
			return p.sess.Ack(err)
		}
		return p.sess.Ack(p.node.submitBeat(beat))
	}
	return p.sess.Ack(fmt.Errorf("gossip: unexpected %s frame on peer link", m.Kind))
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

// prunePendingLocked drops the backlog rounds below the escalation
// watermark, the oldest (see dropLocked), and refreshes the backlog gauges.
// Called with n.mu held.
func (n *Node) prunePendingLocked() {
	k := 0
	for k < len(n.pending) && n.pending[k].Round < n.escalated {
		k++
	}
	n.dropLocked(k)
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
		n.fanOut(peerJob{fan: &n.beatFan, beat: beat})
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

// peerSender is one peer's outbound half, run under n.srv (Close waits for
// it) and the only caller of its link's Exchange. It owns the bodies it sends.
type peerSender struct {
	member int
	link   edge.PeerLink
	work   chan peerJob // a census and a beat at most: see fanOut
	census transport.Census
	beat   transport.HoodBeat
}

// peerJob is one frame for the senders: this node's census, or a beat.
type peerJob struct {
	fan    *fan // n.censusFan or n.beatFan, the fan-out waiting for it
	census transport.Census
	beat   transport.HoodBeat
}

// fan serializes the fan-outs of one job kind. The sender that finishes a
// fan-out's last job wakes its caller, once.
type fan struct {
	sync.Mutex
	left atomic.Int32  // the fan-out's jobs not finished yet, and its hand-off
	done chan struct{} // capacity 1
}

func (n *Node) startSender(member int) {
	s := &peerSender{member: member, work: make(chan peerJob, 2)}
	// A short dial schedule (a dead peer must cost less than the round
	// deadline), and none once closed: Close need not wait out a redial.
	s.link.Dialer = &transport.Dialer{
		Dial: func() (transport.Conn, error) {
			select {
			case <-n.srv.Closed():
				return nil, transport.ErrClosed
			default:
				return n.cfg.PeerDial(member)
			}
		},
		MaxAttempts: 4,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	}
	n.senders = append(n.senders, s)
	n.srv.Go(func() { n.runSender(s) })
}

// runSender sends s's jobs, each redialed and re-sent across connection
// failures, until the node closes. Beats are best-effort: an unreachable
// peer just counts a failure and learns the epoch from the next beat.
func (n *Node) runSender(s *peerSender) {
	for {
		var job peerJob
		select {
		case job = <-s.work:
		case <-n.srv.Closed():
			return
		}
		if job.fan == &n.beatFan {
			s.beat = job.beat
			n.metrics.beatsSent.Inc()
			if s.link.Exchange(func(c transport.Conn) error {
				return session.Wrap(c).Notify(transport.KindHoodBeat, &s.beat, n.cfg.ReplyTimeout)
			}) != nil {
				n.metrics.beatFailures.Inc()
			}
		} else {
			s.census = job.census
			n.metrics.peerSends.Inc()
			if err := s.link.Exchange(func(c transport.Conn) error {
				return session.Wrap(c).Notify(transport.KindCensus, &s.census, n.cfg.ReplyTimeout)
			}); err != nil {
				n.metrics.sendFailures.Inc()
				n.logf("gossip: edge %d: census to peer %d round %d: %v", n.cfg.Edge, s.member, s.census.Round, err)
			}
		}
		if job.fan.left.Add(-1) == 0 {
			select {
			case job.fan.done <- struct{}{}:
			case <-n.srv.Closed():
				return
			}
		}
	}
}

// fanOut hands job to every peer's sender and waits until each has sent it
// or given up, or the node closes. Fan-outs of one kind run one at a time,
// so the wake-up a fan-out takes is its own.
func (n *Node) fanOut(job peerJob) {
	job.fan.Lock()
	defer job.fan.Unlock()
	job.fan.left.Store(int32(len(n.senders)) + 1) // and this hand-off's own share
	for _, s := range n.senders {
		select {
		case s.work <- job:
		case <-n.srv.Closed():
			return
		}
	}
	if job.fan.left.Add(-1) > 0 {
		select {
		case <-job.fan.done:
		case <-n.srv.Closed():
		}
	}
}

// SubmitPeer folds one peer's census into the pending local round. Unlike
// the cloud's Submit it never blocks: the peer only needs receipt, not the
// round's outcome — each member folds the round itself once its own barrier
// fills. A census for a local round that already completed (degraded, or a
// re-send after a redial) is absorbed: the fold moved on.
func (n *Node) SubmitPeer(census transport.Census) error {
	one := [1]transport.Census{census}
	late, err := n.eng.Add(census.Round, one[:])
	if err == nil {
		n.metrics.peerCensuses.Inc()
	}
	if late {
		n.metrics.late.Inc()
	}
	return err
}

// LocalRound runs this node's part of one local consensus round: it adds its
// own census to the round barrier, broadcasts the census to every peer, and
// blocks until the barrier fills (or its deadline degrades it), returning
// the region's next sharing ratio from the local fold. A census for an
// already-completed round returns the current ratio immediately. After
// Close it fails with transport.ErrClosed.
func (n *Node) LocalRound(round int, counts []int) (float64, error) {
	one := [1]transport.Census{{Edge: n.cfg.Edge, Round: round, Counts: counts}}
	// Broadcast once the census is placed, outside the lock: peer barriers
	// fill from these sends the way ours fills from theirs. Peers are sent to
	// concurrently, each by its one sender, so per-peer order is preserved.
	late, err := n.eng.Submit(round, one[:], func() {
		n.fanOut(peerJob{fan: &n.censusFan, census: transport.Census{Edge: n.cfg.Edge, Round: round, Counts: counts}})
	})
	if err != nil {
		return 0, err
	}
	if late {
		// Completed while this node was down or behind; serve the current
		// policy so the caller catches up to Latest()+1.
		return n.X(), nil
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

// completeLocalLocked is the kernel's Complete hook: journal the round and
// fold it, at once, then release its waiters — the cloud's shape. The record
// is write-ahead — the round's censuses, which nothing writes to from here on
// — so its append runs on the journal's goroutine beside the fold, and the
// round is released only once it is durable: a ratio served to a vehicle is
// always recoverable. Called with n.mu held.
func (n *Node) completeLocalLocked(round int, rb *cloud.Barrier, degraded bool) (after func()) {
	set := rb.CensusSet // the barrier's until Release, then the backlog's or the engine's
	rec := durable.RoundRecord{Round: round, Degraded: degraded, Sorted: set.Sorted(round)}
	ticket := n.journal.StartRound(rec) // -1 without a state directory
	rb.Err = n.fold.ApplySet(set)
	// Watermark and backlog move before the cadence checkpoint: it snapshots
	// Latest() as the checkpoint round over a state that already includes
	// this round's fold, and retains the backlog.
	n.eng.Advance(round)
	kept, shed := n.backlogLocked(rec, set)
	if shed > 0 {
		n.metrics.backlogDrop.Add(int64(shed))
		n.logf("gossip: edge %d: backlog cap %d shed %d oldest rounds (next escalation starts at %d)",
			n.cfg.Edge, n.cfg.MaxBacklog, shed, n.escalated)
	}
	n.setBacklogLocked()
	if ticket >= 0 {
		since, err := n.journal.WaitRound(ticket)
		n.journal.Journaled(rec, since, err)
	}
	n.eng.Release(round, rb, degraded)
	if !kept {
		n.recycleLocked(set) // the appender is through with it
	}
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

// escalate sends one Digest carrying every pending round to the cloud and
// takes its ack. A fresh connection is dialed per escalation: a partitioned
// cloud fails the dial fast, the backlog is kept, and the next K boundary
// (or Flush) retries. Runs on the caller's goroutine, never under n.mu; the
// digest's lists are the backlog's own, read under a lease (reading).
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
		d.Rounds = append(d.Rounds, transport.DigestRound{Round: rec.Round, Degraded: rec.Degraded, Censuses: rec.Sorted})
	}
	last := d.Rounds[len(d.Rounds)-1].Round
	n.reading++
	n.mu.Unlock()

	what := "dialing cloud for"
	var reply transport.RatioBatch
	conn, err := n.cfg.CloudDial()
	if err == nil {
		what = "escalating"
		reply, err = session.EscalateDigest(conn, d, n.cfg.ReplyTimeout)
		conn.Close()
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.reading--
	if err != nil {
		n.metrics.escFailures.Inc()
		n.logf("gossip: edge %d: %s digest through round %d: %v", n.cfg.Edge, what, last, err)
		return err
	}
	for i, e := range reply.Edges {
		if e == n.cfg.Edge && i < len(reply.X) {
			n.cloudX = reply.X[i]
			n.cloudSeen = true
			n.metrics.cloudUpdates.Inc()
		}
	}
	n.metrics.escalations.Inc()
	n.ackLocked(min(reply.Acked, last+1))
	return nil
}

// ackLocked takes the cloud's word that every round below acked is durable
// there: the backlog drops them and the journal checkpoints over the rest,
// which the next boundary re-sends. The watermark only ever advances: a slow
// ack racing a larger escalation must not rewind it. Called with n.mu held.
func (n *Node) ackLocked(acked int) {
	n.escalated = max(n.escalated, acked)
	n.prunePendingLocked()
	n.journal.Compact()
}

// Close shuts the node down: pending barriers fail, peer links and inbound
// connections close. It does not Flush; callers wanting the backlog on the
// cloud call Flush first.
func (n *Node) Close() {
	n.srv.Close(func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.eng.Stop()
		for _, s := range n.senders {
			s.link.Close()
		}
		_ = n.journal.Close()
	})
}
