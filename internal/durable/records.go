package durable

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/game"
	"repro/internal/policy"
	"repro/internal/transport"
)

// tagBinary opens every payload this package writes; one that opens with '{'
// is JSON an older build wrote. DESIGN §10.1 has the layouts.
const tagBinary = 0x01

// A round record's flags, in the bit order appendRound sets them in.
const (
	flagDegraded = 1 << iota
	flagCorrected
	flagNilCensuses
)

// Checkpoint is the coordinator's full durable state: the game state after
// round Round, the round number itself, and the FDS controller's cross-round
// memory. Floats are stored as their bits, so a recovered state is
// bit-identical to the checkpointed one.
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

// EncodeCheckpoint serializes a checkpoint payload: the tag; varint Round,
// CorrectionSeq, Escalated and Epoch; the state's rows, its ratios and the FDS
// shortfalls as float64 bits; the stall counters, then the digest watermarks
// in ascending hood order, as varints.
func EncodeCheckpoint(cp Checkpoint) ([]byte, error) {
	if cp.State == nil {
		return nil, fmt.Errorf("durable: checkpoint state must be non-nil")
	}
	size := 64 + 9*(len(cp.State.X)+len(cp.FDS.LastShortfall)) + 10*(len(cp.FDS.StallRounds)+2*len(cp.DigestWatermarks))
	for _, p := range cp.State.P {
		size += 10 + 8*len(p)
	}
	b := append(make([]byte, 0, size), tagBinary)
	for _, v := range []int64{int64(cp.Round), cp.CorrectionSeq, int64(cp.Escalated), int64(cp.Epoch)} {
		b = binary.AppendVarint(b, v)
	}
	b = appendLen(b, len(cp.State.P), cp.State.P == nil)
	for _, p := range cp.State.P {
		b = appendFloats(b, p)
	}
	b = appendInts(appendFloats(appendFloats(b, cp.State.X), cp.FDS.LastShortfall), cp.FDS.StallRounds)
	b = appendLen(b, len(cp.DigestWatermarks), cp.DigestWatermarks == nil)
	hoods := make([]int, 0, len(cp.DigestWatermarks))
	for h := range cp.DigestWatermarks {
		hoods = append(hoods, h)
	}
	slices.Sort(hoods)
	for _, h := range hoods {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(h)), int64(cp.DigestWatermarks[h]))
	}
	return b, nil
}

// DecodeCheckpoint parses and validates a checkpoint payload.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	cp, err := decode(b, "checkpoint", readCheckpoint)
	if err != nil {
		return Checkpoint{}, err
	}
	if cp.State == nil {
		return Checkpoint{}, fmt.Errorf("durable: checkpoint has no state")
	}
	if err := cp.State.Validate(); err != nil {
		return Checkpoint{}, fmt.Errorf("durable: checkpoint state: %w", err)
	}
	return cp, nil
}

func readCheckpoint(b []byte) (Checkpoint, error) {
	r := reader{buf: b}
	cp := Checkpoint{Round: r.int(), CorrectionSeq: int64(r.int()), Escalated: r.int(), Epoch: r.int(), State: &game.State{}}
	cp.State.P = list(&r, 1, func(r *reader) []float64 { return list(r, 8, (*reader).float) })
	cp.State.X, cp.FDS.LastShortfall = list(&r, 8, (*reader).float), list(&r, 8, (*reader).float)
	cp.FDS.StallRounds = list(&r, 1, (*reader).int)
	if n, isNil := r.len(2, true); !isNil {
		cp.DigestWatermarks = make(map[int]int, n)
		for i, prev := 0, 0; i < n; i++ {
			h := r.int()
			if i > 0 && h <= prev {
				r.fail(fmt.Errorf("hood %d does not follow hood %d", h, prev))
			}
			cp.DigestWatermarks[h], prev = r.int(), h
		}
	}
	return cp, r.end()
}

// RoundRecord journals one applied consensus round: the censuses the FDS
// update ran over and whether the round completed degraded. Replaying the
// record through the same fold reproduces the post-round state exactly.
type RoundRecord struct {
	Round    int  `json:"round"`
	Degraded bool `json:"degraded,omitempty"`
	// Sorted holds the censuses in ascending region order, as a census set
	// lists them; Censuses holds them by region, as DecodeRound returns them
	// (and the benchmark builds them). A record holds one form or the other.
	Sorted   []transport.Census `json:"-"`
	Censuses map[int][]int      `json:"censuses"`
	// Corrected marks the record a fixed-lag rewind writes after folding a
	// late census into an already-applied round. It is a delta: the record
	// holds the late census alone and Degraded is left out. Replay merges it,
	// last write wins, into the round's census set and re-folds from there,
	// reproducing the corrected history rather than the arrival-order one.
	// Journals written before the delta form hold the round's whole
	// corrected set under the same flag, which merges to the same set.
	Corrected bool `json:"corrected,omitempty"`
}

// EncodeRound serializes a round record payload: the tag; varint Round; the
// flags (degraded, corrected, no censuses at all) in one byte; uvarint census
// count; then per region in ascending order the varint step from the previous
// one (from 0), uvarint len(counts)+1 (0 for nil counts) and varint counts. A
// record encodes to the same bytes whichever form holds its censuses, and
// whatever order its map was filled in.
func EncodeRound(rec RoundRecord) ([]byte, error) {
	size := 16
	for _, counts := range rec.Censuses {
		size += 4 + 2*len(counts)
	}
	var scratch []transport.Census
	return appendRound(make([]byte, 0, size), &scratch, rec), nil
}

// appendRound is EncodeRound into b. A record in map form is listed in
// scratch first: a journal that keeps both encodes its steady state without
// allocating.
func appendRound(b []byte, scratch *[]transport.Census, rec RoundRecord) []byte {
	list := rec.Sorted
	if rec.Censuses != nil {
		list = slices.Grow((*scratch)[:0], len(rec.Censuses))
		for region, counts := range rec.Censuses {
			list = append(list, transport.Census{Edge: region, Counts: counts})
		}
		slices.SortFunc(list, func(a, b transport.Census) int { return cmp.Compare(a.Edge, b.Edge) })
		*scratch = list
	}
	var flags byte
	for bit, set := range [...]bool{rec.Degraded, rec.Corrected, rec.Sorted == nil && rec.Censuses == nil} {
		if set {
			flags |= 1 << bit
		}
	}
	b = append(binary.AppendVarint(append(b, tagBinary), int64(rec.Round)), flags)
	b = binary.AppendUvarint(b, uint64(len(list)))
	prev := 0
	for _, c := range list {
		b = appendInts(binary.AppendVarint(b, int64(c.Edge-prev)), c.Counts)
		prev = c.Edge
	}
	return b
}

// DecodeRound parses a round record payload; the counts of every census are
// cut from one slab.
func DecodeRound(b []byte) (RoundRecord, error) { return decode(b, "round record", readRound) }

func readRound(b []byte) (RoundRecord, error) {
	r := reader{buf: b}
	rec := RoundRecord{Round: r.int()}
	flags := r.uvarint()    // one byte: every flag is below 0x80
	n, _ := r.len(2, false) // a census is at least its step and its length
	if flags >= flagNilCensuses<<1 || flags&flagNilCensuses != 0 && n != 0 {
		r.fail(fmt.Errorf("flags %#x with %d censuses", flags, n))
	}
	rec.Degraded, rec.Corrected = flags&flagDegraded != 0, flags&flagCorrected != 0
	if r.err == nil && flags&flagNilCensuses == 0 {
		rec.Censuses = make(map[int][]int, n)
	}
	var slab []int
	for i, region := 0, 0; i < n && r.err == nil; i++ {
		step := r.int()
		if i > 0 && (step <= 0 || region+step < region) {
			r.fail(fmt.Errorf("census %d does not follow region %d", i, region))
		}
		region += step
		var counts []int
		if k, isNil := r.len(1, true); !isNil {
			if slab == nil {
				slab = make([]int, len(r.buf)) // room for every count left: each takes a byte at least
			}
			counts, slab = slab[:k:k], slab[k:]
			for j := range counts {
				counts[j] = r.int()
			}
		}
		rec.Censuses[region] = counts
	}
	return rec, r.end()
}

// decode parses a payload: as JSON when it opens with '{', as the binary body
// after the tag with read otherwise.
func decode[T any](b []byte, what string, read func([]byte) (T, error)) (v T, err error) {
	switch {
	case len(b) > 0 && b[0] == '{':
		var old T // apart from v: encoding/json puts it on the heap
		err = json.Unmarshal(b, &old)
		v = old
	case len(b) > 0 && b[0] == tagBinary:
		v, err = read(b[1:])
	default:
		err = fmt.Errorf("unknown payload tag %x", b[:min(len(b), 1)])
	}
	if err != nil {
		err = fmt.Errorf("durable: decode %s: %w", what, err)
	}
	return v, err
}

// appendLen writes a length as n+1, and a nil slice or map as 0.
func appendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendInts(b []byte, vs []int) []byte {
	b = appendLen(b, len(vs), vs == nil)
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendFloats(b []byte, vs []float64) []byte {
	b = appendLen(b, len(vs), vs == nil)
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// reader consumes a binary body. As transport's byteReader, it bounds every
// length by the bytes left; it refuses a varint longer than its value needs,
// so a body that decodes re-encodes to the same bytes. The first error sticks
// and empties it.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// end returns the first error, or one for bytes left over.
func (r *reader) end() error {
	if len(r.buf) > 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)))
	}
	return r.err
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n > 1 && r.buf[n-1] == 0 {
		r.fail(fmt.Errorf("bad varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) int() int {
	v := r.uvarint()
	return int(int64(v>>1) ^ -int64(v&1)) // zigzag, as binary.Varint
}

func (r *reader) float() float64 {
	if len(r.buf) < 8 {
		r.fail(fmt.Errorf("truncated float64"))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// len reads a length of elements of at least min bytes each — written n+1,
// 0 for nil, when nilable.
func (r *reader) len(min int, nilable bool) (n int, isNil bool) {
	v := r.uvarint()
	if nilable {
		if v == 0 {
			return 0, true
		}
		v--
	}
	if v > uint64(len(r.buf)/min) {
		r.fail(fmt.Errorf("length %d exceeds remaining %d bytes", v, len(r.buf)))
		return 0, nilable
	}
	return int(v), false
}

// list reads an appendLen length and that many elements with read.
func list[T any](r *reader, min int, read func(*reader) T) []T {
	n, isNil := r.len(min, true)
	if isNil {
		return nil
	}
	vs := make([]T, n)
	for i := range vs {
		vs[i] = read(r)
	}
	return vs
}
