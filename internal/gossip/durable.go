package gossip

import (
	"fmt"

	"repro/internal/durable"
)

// Open attaches a durable state directory to the node and recovers any
// state a previous process left there: the checkpoint restores the fold and
// the escalation watermark, the journal's round records replay onto it
// through the same fold the live rounds use (bit-identical), and the leader
// rebuilds its unacked backlog from the records above the watermark. Call
// before Serve; the node resumes at Latest()+1.
func (n *Node) Open(stateDir string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.journal != nil {
		return fmt.Errorf("gossip: state directory already open (%s)", n.journal.Dir())
	}
	journal, cp, err := n.fold.Recover(stateDir)
	if err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	fromCheckpoint := cp != nil
	if fromCheckpoint {
		n.eng.Advance(cp.Round)
		n.escalated = cp.Escalated
		if n.failover {
			n.epoch = cp.Epoch
			n.leader = n.leaderAt(n.epoch) == n.cfg.Edge
		}
	}
	journal.Instrument(n.obsv, n.metrics.journalErrs, n.cfg.Logf)
	retain := n.leader || n.failover
	replayed := 0
	err = journal.Replay(func(rec durable.RoundRecord) error {
		if rec.Round <= n.eng.Latest() {
			// The fold effect is already in — from the checkpoint (a record in
			// a segment it had not unlinked yet, or an unacked round a
			// leader's checkpoint keeps journaled) or from the copy a healed
			// journal wrote twice. A round not yet seen still rebuilds the
			// escalation backlog; re-applying it would double-fold.
			if k := len(n.pending); retain && rec.Round >= n.escalated && (k == 0 || rec.Round > n.pending[k-1].Round) {
				n.pending = append(n.pending, rec)
			}
			return nil
		}
		if err := n.fold.Apply(rec.Censuses); err != nil {
			return fmt.Errorf("replaying round %d: %w", rec.Round, err)
		}
		n.eng.Advance(rec.Round)
		if retain && rec.Round >= n.escalated {
			n.pending = append(n.pending, rec)
		} else if !retain {
			n.escalated = rec.Round + 1
		}
		replayed++
		return nil
	})
	if err != nil {
		journal.Close()
		return fmt.Errorf("gossip: journal in %s: %w", stateDir, err)
	}
	if replayed > 0 {
		n.metrics.replayed.Add(int64(replayed))
	}
	if n.failover && n.leader && (fromCheckpoint || replayed > 0) {
		// A recovered leadership claim is tentative: the neighborhood may
		// have promoted a successor while this process was dead, and its
		// higher-epoch beat must win before this node escalates anything.
		// Only a quiet TTL confirms the claim. A genuinely fresh node (empty
		// state directory) skips the hold-off — there is no prior state a
		// successor could be draining.
		n.tentative = true
	}
	if fromCheckpoint || replayed > 0 || len(n.pending) > 0 {
		n.metrics.recoveries.Inc()
		n.setBacklogLocked()
		n.logf("gossip: edge %d: recovered state through round %d from %s (%d journal records replayed, %d pending escalation)",
			n.cfg.Edge, n.eng.Latest(), stateDir, replayed, len(n.pending))
	}
	n.journal = journal
	return nil
}

// persistRoundLocked journals one completed local round. The append fsyncs
// before the round's waiters release; failures are counted and logged but
// do not fail the round — the node keeps serving from memory. Non-leader
// nodes checkpoint by count (their journal only serves their own recovery);
// the leader checkpoints on acknowledged escalations instead, because its
// journal doubles as the unacked-digest backlog. Called with n.mu held;
// no-op without an open journal.
func (n *Node) persistRoundLocked(rec durable.RoundRecord) {
	if n.journal == nil {
		return
	}
	since, err := n.journal.AppendRound(rec)
	if err == nil && !n.leader && since >= durable.CompactEvery {
		err = n.checkpointLocked()
	}
	if err != nil {
		n.metrics.journalErrs.Inc()
		n.logf("gossip: edge %d: journaling round %d: %v", n.cfg.Edge, rec.Round, err)
	}
}

// checkpointLocked checkpoints the node's durable state, keeping journaled
// the round records still awaiting cloud acknowledgment so a restarted
// leader re-escalates exactly the unacked backlog. Called with n.mu held.
func (n *Node) checkpointLocked() error {
	cp := n.fold.Checkpoint(n.eng.Latest())
	cp.Escalated = n.escalated
	cp.Epoch = n.epoch
	return n.journal.Checkpoint(func() ([]byte, error) { return durable.EncodeCheckpoint(cp) }, n.pending)
}
