package gossip

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/durable"
)

// Open attaches a durable state directory to the node and recovers what a
// previous process left there (see durable.Journal.Open): the checkpoint
// restores the fold, the escalation watermark and the epoch, the journal's
// round records replay onto it through the same fold the live rounds use
// (bit-identical), and a node that keeps the escalation backlog rebuilds it
// from the records at or above the watermark. Call before Serve; the node
// resumes at Latest()+1.
func (n *Node) Open(stateDir string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.journal.Open(stateDir, durable.Owner{
		Name: fmt.Sprintf("gossip: edge %d", n.cfg.Edge),
		Restore: func(snap []byte) (int, error) {
			cp, err := n.fold.Restore(snap)
			if err == nil {
				n.eng.Advance(cp.Round)
				n.escalated = cp.Escalated
				if n.failover {
					n.epoch = cp.Epoch
					n.leader = n.leaderAt(n.epoch) == n.cfg.Edge
				}
			}
			return cp.Round, err
		},
		Replay: n.replayLocked, Checkpoint: n.checkpointLocked, Every: durable.CompactEvery, Observer: n.obsv, Logf: n.cfg.Logf,
		Errors: n.metrics.journalErrs, Recoveries: n.metrics.recoveries, Replayed: n.metrics.replayed,
	})
	// A recovered leadership claim is tentative: a successor promoted while
	// this process was dead must be able to demote it by a higher-epoch beat
	// before it escalates anything, so only a quiet TTL confirms it. A fresh
	// node (empty state directory) has no such successor to wait for.
	n.tentative = err == nil && n.failover && n.leader && n.eng.Latest() >= 0
	n.setBacklogLocked()
	return err
}

// replayLocked is the journal's Replay hook: a round past the checkpoint is
// folded, and every round at or above the escalation watermark not yet in the
// backlog goes through backlogLocked, as it did live — also one the fold
// already holds (an unacked round a checkpoint keeps journaled, a record a
// healed journal wrote twice), which must not be applied again. Called with
// n.mu held.
func (n *Node) replayLocked(rec durable.RoundRecord) (bool, error) {
	set, err := n.eng.Collect(rec)
	if err != nil {
		return false, err
	}
	rec = durable.RoundRecord{Round: rec.Round, Degraded: rec.Degraded, Sorted: set.Sorted(rec.Round)}
	applied := rec.Round > n.eng.Latest()
	if applied {
		if err := n.fold.ApplySet(set); err != nil {
			return false, err
		}
		n.eng.Advance(rec.Round)
	}
	kept := false
	if k := len(n.pending); rec.Round >= n.escalated && (k == 0 || rec.Round > n.pending[k-1].Round) {
		kept, _ = n.backlogLocked(rec, set)
	}
	if !kept {
		n.recycleLocked(set)
	}
	return applied, nil
}

// backlogLocked keeps a completed round for escalation on a node that keeps
// the backlog — the leader, or with failover every member, so that a follower
// promoted after the leader dies holds what it never escalated — and sheds
// the oldest past MaxBacklog, moving the watermark past them: they are
// forgone for good, live and after a restart alike. A node without a backlog
// only moves the watermark. The backlog keeps set, the census set rec's list
// is cut from, until the round leaves it; kept reports whether it did, and
// shed how many rounds it shed. Called with n.mu held.
func (n *Node) backlogLocked(rec durable.RoundRecord, set *cloud.CensusSet) (kept bool, shed int) {
	if !n.leader && !n.failover {
		n.escalated = rec.Round + 1
		return false, 0
	}
	n.pending, n.sets = append(n.pending, rec), append(n.sets, set)
	if n.cfg.MaxBacklog > 0 && len(n.pending) > n.cfg.MaxBacklog {
		shed = len(n.pending) - n.cfg.MaxBacklog
		n.dropLocked(shed)
		n.escalated = n.pending[0].Round
	}
	return true, shed
}

// dropLocked takes the oldest k rounds off the backlog and hands their census
// sets back, unless an escalation is reading the backlog's lists outside n.mu:
// the collector then takes them. Called with n.mu held.
func (n *Node) dropLocked(k int) {
	if n.reading == 0 {
		n.recycleLocked(n.sets[:k]...)
	}
	n.pending = append(n.pending[:0], n.pending[k:]...)
	n.sets = append(n.sets[:0], n.sets[k:]...)
}

// maxSpares bounds the census sets a node's engine keeps for its next
// barriers: a leader's backlog between two escalations, or a follower's
// between two beats, at a few milliseconds a round, plus the barrier
// completing and the next. Past it the collector takes what a prune frees, so
// the sets a long partition's backlog held do not outlive it.
const maxSpares = 32

// recycleLocked hands census sets the node is done with back to the engine,
// whose next barriers fill them, up to maxSpares. Called with n.mu held.
func (n *Node) recycleLocked(sets ...*cloud.CensusSet) {
	for _, set := range sets {
		if n.eng.Spares() >= maxSpares {
			return
		}
		n.eng.Recycle(set)
	}
}

// checkpointLocked is the journal's Checkpoint hook: the fold, the
// escalation watermark and the epoch, with the round records still awaiting
// cloud acknowledgment kept journaled, so that a restarted leader
// re-escalates exactly the unacked backlog. Called with n.mu held.
func (n *Node) checkpointLocked(dst []byte) ([]byte, []durable.RoundRecord, error) {
	cp := n.fold.Checkpoint(n.eng.Latest())
	cp.Escalated, cp.Epoch = n.escalated, n.epoch
	snap, err := durable.AppendCheckpoint(dst, cp)
	return snap, n.pending, err
}
