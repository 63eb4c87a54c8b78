package durable

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/game"
	"repro/internal/policy"
)

// Checkpoint is the coordinator's full durable state: the game state after
// round Round, the round number itself, and the FDS controller's cross-round
// memory. Payloads are JSON: encoding/json round-trips float64 exactly, so
// a recovered state is bit-identical to the checkpointed one.
type Checkpoint struct {
	Round int              `json:"round"`
	State *game.State      `json:"state"`
	FDS   policy.FDSMemory `json:"fds"`
	// CorrectionSeq is the fixed-lag correction counter at checkpoint time,
	// so corrections published after a restart keep increasing monotonically
	// and edges never discard them as stale.
	CorrectionSeq int64 `json:"correction_seq,omitempty"`
	// Escalated is the gossip tier's escalation watermark: the first round
	// NOT yet compacted into a cloud-acknowledged digest (every round below
	// it has been acked). A restarted gossip leader rebuilds its escalation
	// backlog from journal records at or past it. Zero-valued for the cloud
	// coordinator's own checkpoints.
	Escalated int `json:"escalated,omitempty"`
	// Epoch is the gossip tier's leadership epoch at checkpoint time (see
	// gossip failover): leader(epoch) = members[epoch mod len(members)]. A
	// restarted node resumes from the recorded epoch and lets incoming
	// hood beats correct it forward. Zero-valued for cloud checkpoints.
	Epoch int `json:"epoch,omitempty"`
	// DigestWatermarks is the cloud control plane's per-neighborhood
	// escalation watermark: for hood h, every digest round below
	// DigestWatermarks[h] has already been folded (or absorbed by the
	// rewind window), so re-sent digests — from a retrying old leader or a
	// failed-over successor draining the same backlog — are adopted
	// idempotently after a restart too. Nil for gossip-node checkpoints.
	DigestWatermarks map[int]int `json:"digest_watermarks,omitempty"`
}

// EncodeCheckpoint serializes a checkpoint payload.
func EncodeCheckpoint(cp Checkpoint) ([]byte, error) {
	if cp.State == nil {
		return nil, fmt.Errorf("durable: checkpoint state must be non-nil")
	}
	return json.Marshal(cp)
}

// DecodeCheckpoint parses and validates a checkpoint payload.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("durable: decode checkpoint: %w", err)
	}
	if cp.State == nil {
		return Checkpoint{}, fmt.Errorf("durable: checkpoint has no state")
	}
	if err := cp.State.Validate(); err != nil {
		return Checkpoint{}, fmt.Errorf("durable: checkpoint state: %w", err)
	}
	return cp, nil
}

// RoundRecord journals one applied consensus round: the censuses the FDS
// update ran over (keyed by region) and whether the round completed
// degraded. Replaying the record through the same fold reproduces the
// post-round state exactly.
type RoundRecord struct {
	Round    int           `json:"round"`
	Degraded bool          `json:"degraded,omitempty"`
	Censuses map[int][]int `json:"censuses"`
	// Corrected marks the record a fixed-lag rewind writes after folding a
	// late census into an already-applied round. It is a delta: Censuses
	// holds the late census alone and Degraded is left out. Replay merges it,
	// last write wins, into the round's census set and re-folds from there,
	// reproducing the corrected history rather than the arrival-order one.
	// Journals written before the delta form hold the round's whole
	// corrected set under the same flag, which merges to the same set.
	Corrected bool `json:"corrected,omitempty"`
}

// EncodeRound serializes a round record payload: the JSON object the struct
// tags above describe, appended by hand (a round at M=1024 is a map of a
// thousand slices, and reflecting over it was a visible share of a commit)
// with the regions in ascending order. DecodeRound reads it back with
// encoding/json, as it reads the records json.Marshal wrote before.
func EncodeRound(rec RoundRecord) ([]byte, error) {
	size := 64
	for _, counts := range rec.Censuses {
		size += 10 + 4*len(counts)
	}
	b, _ := appendRound(make([]byte, 0, size), make([]int, 0, len(rec.Censuses)), rec)
	return b, nil
}

// appendRound is EncodeRound into b, sorting the regions in the scratch it
// is given and returns grown: a journal that keeps both encodes its steady
// state without allocating.
func appendRound(b []byte, regions []int, rec RoundRecord) ([]byte, []int) {
	for region := range rec.Censuses {
		regions = append(regions, region)
	}
	slices.Sort(regions)

	b = append(b, `{"round":`...)
	b = strconv.AppendInt(b, int64(rec.Round), 10)
	if rec.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = append(b, `,"censuses":`...)
	if rec.Censuses == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for n, region := range regions {
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(region), 10)
			b = append(b, '"', ':')
			counts := rec.Censuses[region]
			if counts == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for d, c := range counts {
				if d > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(c), 10)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if rec.Corrected {
		b = append(b, `,"corrected":true`...)
	}
	return append(b, '}'), regions
}

// DecodeRound parses a round record payload.
func DecodeRound(b []byte) (RoundRecord, error) {
	var rec RoundRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return RoundRecord{}, fmt.Errorf("durable: decode round record: %w", err)
	}
	return rec, nil
}
