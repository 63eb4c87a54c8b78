package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/sensor"
)

// binaryCodec is the wire format (version 2): a compact tag+varint encoding
// of the thirteen protocol payloads.
//
// Frame layout (after the 4-byte big-endian length prefix):
//
//	frame   := kindTag payload
//	kindTag := 1 hello | 2 census | 3 ratio | 7 ack | 8 lease
//	         | 13 hood_beat | 15 policy | 18 upload | 19 delivery
//	         | 20 census_batch | 21 ratio_batch | 22 digest
//	         | 23 ratio_corrections   (4-6, 9-12, 14, 16 and 17 are retired)
//	int     := zigzag varint            (encoding/binary PutVarint)
//	len     := uvarint                  (encoding/binary PutUvarint)
//	f64     := 8-byte little-endian IEEE-754 bits
//	str     := len bytes
//	mask    := 1 byte, a subset of sensor.MaskAll
//
//	hello    := int(vehicle)
//	census   := int(edge) int(round) len [int(count)]...
//	ratio    := int(round) f64(x)
//	policy   := int(round) f64(x) len [int(count)]...
//	run      := int(owner) mask         (mask nonempty)
//	upload   := int(round) int(decision) mask
//	delivery := int(round) len [run]...
//	ack      := str(err)
//	lease    := int(edge) int(ttl_ms)
//	list     := len [int(edge_delta) len [int(count)]...]...
//	runs     := [len(n) f64(x)]...
//	census_batch := int(shard) int(round) list
//	ratio_batch  := int(round) len [int(edge_delta)]... runs
//	digest_round := int(round) int(degraded 0|1) list
//	digest       := int(neighborhood) int(of) len [int(member)]... len [digest_round]...
//	hood_beat    := int(hood) int(epoch) int(leader) int(escalated) int(ttl_ms)
//	ratio_corrections := int(round) int(seq) len [int(edge_delta)]... runs
//
// A listed census takes its list's round; the encoder never reads its
// Census.Round. An edge_delta is the difference from the edge before (the
// first from 0), so any order encodes and neighbours cost a byte each; a
// correction's edges must ascend strictly. The runs cover a ratio list
// exactly, each a maximal stretch of bit-identical values. Tags 10-12 and
// 14 were these frames with a round per listed census, bare edges and an
// f64 per ratio; tag 9 the one-region ratio_correction. Like any unknown
// tag they are refused, so a peer still sending one gets an error, not a
// misread.
//
// An item is (owner, round, modality): a sharer shares at most one item per
// modality a round. A run is a stretch of items with one owner, each the one
// modality its mask bit names, in rising bit order, so a delivery is one run
// per sharer. An upload is its vehicle's one run without the owner: it
// belongs to its session, and the edge reads the owner from the session's
// hello. Tags 4, 5 and 6 were the policy of float64 shares and the
// item-by-item upload and delivery; 16 and 17 the upload and delivery whose
// runs carried a sequence number and whose upload named its vehicle.
//
// Decoding is strict: truncated fields, lengths that cannot fit in the
// remaining bytes (which also caps decode allocations), unknown kind tags,
// correction edges out of order, ratio runs that are empty, overrun their
// list or repeat the run before, unknown mask bits, empty run masks, and
// trailing garbage all fail.
type binaryCodec struct{}

// Binary kind tags (wire stable — append only).
const (
	tagHello byte = iota + 1
	tagCensus
	tagRatio
	_ // 4: the retired float64-share policy
	_ // 5: the retired item-by-item upload
	_ // 6: the retired item-by-item delivery
	tagAck
	tagLease
	_ // 9: the retired one-region ratio_correction
	_ // 10: the retired census_batch of censuses with rounds
	_ // 11: the retired ratio_batch of bare edges and one f64 each
	_ // 12: the retired digest of censuses with rounds
	tagHoodBeat
	_ // 14: the retired ratio_corrections of one f64 each
	tagPolicy
	_ // 16: the retired upload of seq runs naming its vehicle
	_ // 17: the retired delivery of seq runs
	tagUpload
	tagDelivery
	tagCensusBatch
	tagRatioBatch
	tagDigest
	tagRatioCorrection
)

// AppendEncode appends m's wire frame (excluding the length prefix) to dst
// and returns the extended slice.
func (binaryCodec) AppendEncode(dst []byte, m Message) ([]byte, error) {
	switch m.Kind {
	case KindHello:
		h, err := typedBody[Hello](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagHello)
		return appendInt(dst, int64(h.Vehicle)), nil
	case KindCensus:
		c, err := typedBody[Census](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagCensus)
		return appendCensus(dst, &c), nil
	case KindRatio:
		r, err := typedBody[Ratio](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagRatio)
		dst = appendInt(dst, int64(r.Round))
		return appendFloat(dst, r.X), nil
	case KindPolicy:
		p, err := typedBody[Policy](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagPolicy)
		dst = appendInt(dst, int64(p.Round))
		dst = appendFloat(dst, p.X)
		return appendCounts(dst, p.Counts), nil
	case KindUpload:
		u, err := typedBody[Upload](m)
		if err != nil {
			return nil, err
		}
		if !u.Share.Valid() {
			return nil, fmt.Errorf("transport: upload share %#x is not a sensor set", uint8(u.Share))
		}
		dst = append(dst, tagUpload)
		dst = appendInt(dst, int64(u.Round))
		dst = appendInt(dst, int64(u.Decision))
		return append(dst, byte(u.Share)), nil
	case KindDelivery:
		d, err := typedBody[Delivery](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagDelivery)
		dst = appendInt(dst, int64(d.Round))
		return appendRuns(dst, d.Items)
	case KindAck:
		a, err := typedBody[Ack](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagAck)
		dst = appendLen(dst, len(a.Err))
		return append(dst, a.Err...), nil
	case KindLease:
		l, err := typedBody[Lease](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagLease)
		dst = appendInt(dst, int64(l.Edge))
		return appendInt(dst, l.TTLMillis), nil
	case KindRatioCorrection:
		rc, err := typedBody[RatioCorrection](m)
		if err != nil {
			return nil, err
		}
		if len(rc.Edges) != len(rc.X) {
			return nil, fmt.Errorf("transport: ratio correction has %d edges but %d ratios", len(rc.Edges), len(rc.X))
		}
		if err := checkAscending(rc.Edges); err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		dst = append(dst, tagRatioCorrection)
		dst = appendInt(dst, int64(rc.Round))
		dst = appendInt(dst, rc.Seq)
		return appendRatios(dst, rc.Edges, rc.X), nil
	case KindCensusBatch:
		cb, err := typedBody[CensusBatch](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagCensusBatch)
		dst = appendInt(dst, int64(cb.Shard))
		dst = appendInt(dst, int64(cb.Round))
		return appendCensusList(dst, cb.Censuses), nil
	case KindRatioBatch:
		rb, err := typedBody[RatioBatch](m)
		if err != nil {
			return nil, err
		}
		if len(rb.Edges) != len(rb.X) {
			return nil, fmt.Errorf("transport: ratio batch has %d edges but %d ratios", len(rb.Edges), len(rb.X))
		}
		dst = append(dst, tagRatioBatch)
		dst = appendInt(dst, int64(rb.Round))
		return appendRatios(dst, rb.Edges, rb.X), nil
	case KindDigest:
		d, err := typedBody[Digest](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagDigest)
		dst = appendInt(dst, int64(d.Neighborhood))
		dst = appendInt(dst, int64(d.Of))
		dst = appendLen(dst, len(d.Members))
		for _, member := range d.Members {
			dst = appendInt(dst, int64(member))
		}
		dst = appendLen(dst, len(d.Rounds))
		for _, dr := range d.Rounds {
			dst = appendInt(dst, int64(dr.Round))
			degraded := int64(0)
			if dr.Degraded {
				degraded = 1
			}
			dst = appendInt(dst, degraded)
			dst = appendCensusList(dst, dr.Censuses)
		}
		return dst, nil
	case KindHoodBeat:
		hb, err := typedBody[HoodBeat](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagHoodBeat)
		dst = appendInt(dst, int64(hb.Hood))
		dst = appendInt(dst, int64(hb.Epoch))
		dst = appendInt(dst, int64(hb.Leader))
		dst = appendInt(dst, int64(hb.Escalated))
		return appendInt(dst, hb.TTLMillis), nil
	default:
		return nil, fmt.Errorf("transport: binary codec cannot encode kind %q", m.Kind)
	}
}

// Decode parses one frame into bodies the caller owns.
func (binaryCodec) Decode(frame []byte) (Message, error) {
	var fresh recvScratch
	return decodeBinary(frame, &fresh)
}

// recvScratch holds the bodies the per-vehicle-round kinds (policy, upload,
// delivery, ack), an edge's per-round ratio reply and the census kinds
// (census, census_batch, digest) decode into. Every conn keeps one and reuses
// it from frame to frame, which is what makes a received body valid only
// until the conn's next Recv; Decode hands in an empty one, so its bodies are
// the caller's. A body is allocated the first time its kind arrives — an
// edge-side conn never sees a delivery, a vehicle-side conn never an upload —
// and its slices grow to the largest frame of that kind seen.
type recvScratch struct {
	ratio    *Ratio
	policy   *Policy
	upload   *Upload
	delivery *Delivery
	ack      *Ack
	census   *Census
	batch    *CensusBatch
	digest   *Digest
	// The census kinds' lists and all counts are cut from these (see
	// byteReader.censuses), from the start again at every frame.
	list   []Census
	counts []int
}

// deliveryPool holds the delivery bodies no conn is lending out. A delivery
// is the one large body — 60 items are ~1 KB where the other three kinds
// stay near 100 bytes — and a vehicle is done with it as soon as its handler
// returns, so a fleet shares as many as are being handled at once instead of
// every vehicle's conn keeping its own between rounds.
var deliveryPool = sync.Pool{New: func() interface{} { return new(Delivery) }}

// release gives the delivery body back at the conn's next Recv, which is
// when the last message's Body stops being valid.
func (s *recvScratch) release() {
	if s.delivery != nil {
		deliveryPool.Put(s.delivery)
		s.delivery = nil
	}
}

// reuse returns the scratch body *p, allocated the first time its kind
// arrives.
func reuse[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// decodeBinary parses one frame. The scratch kinds come back as pointers
// into s; every other kind — ratio-batch consumers hold their slices across
// rounds — as a freshly allocated value.
func decodeBinary(frame []byte, s *recvScratch) (Message, error) {
	if len(frame) == 0 {
		return Message{}, fmt.Errorf("transport: empty binary frame")
	}
	r := byteReader{buf: frame[1:], list: s.list[:0], counts: s.counts[:0]}
	var (
		kind Kind
		body interface{}
	)
	switch frame[0] {
	case tagHello:
		kind = KindHello
		body = Hello{Vehicle: int(r.int())}
	case tagCensus:
		c := reuse(&s.census)
		c.Edge, c.Round = int(r.int()), int(r.int())
		c.Counts = r.ints(r.len(1), 0)
		kind, body = KindCensus, c
	case tagRatio:
		x := reuse(&s.ratio)
		x.Round, x.X = int(r.int()), r.float()
		kind, body = KindRatio, x
	case tagPolicy:
		p := reuse(&s.policy)
		p.Round, p.X = int(r.int()), r.float()
		p.Counts = r.ints(r.len(1), 0)
		kind, body = KindPolicy, p
	case tagUpload:
		u := reuse(&s.upload)
		u.Round, u.Decision = int(r.int()), int(r.int())
		u.Share = r.mask()
		kind, body = KindUpload, u
	case tagDelivery:
		if s.delivery == nil {
			s.delivery = deliveryPool.Get().(*Delivery)
		}
		d := s.delivery
		d.Round = int(r.int())
		d.Items = r.runs(d.Items)
		kind, body = KindDelivery, d
	case tagAck:
		a := reuse(&s.ack)
		a.Err = r.str()
		kind, body = KindAck, a
	case tagLease:
		kind = KindLease
		body = Lease{Edge: int(r.int()), TTLMillis: r.int()}
	case tagCensusBatch:
		cb := reuse(&s.batch)
		cb.Shard, cb.Round = int(r.int()), int(r.int())
		cb.Censuses = r.censuses(cb.Round)
		kind, body = KindCensusBatch, cb
	case tagRatioBatch:
		rb := RatioBatch{Round: int(r.int())}
		rb.Edges, rb.X = r.ratios()
		kind, body = KindRatioBatch, rb
	case tagDigest:
		d := reuse(&s.digest)
		d.Neighborhood, d.Of = int(r.int()), int(r.int())
		d.Members = r.ints(r.len(1), 0)
		// Each digest round is at least 3 bytes (round, degraded, empty list).
		d.Rounds = append(d.Rounds[:0], make([]DigestRound, r.len(3))...)
		for i := range d.Rounds {
			dr := &d.Rounds[i]
			dr.Round, dr.Degraded = int(r.int()), r.int() != 0
			dr.Censuses = r.censuses(dr.Round)
		}
		kind, body = KindDigest, d
	case tagHoodBeat:
		kind = KindHoodBeat
		body = HoodBeat{
			Hood:      int(r.int()),
			Epoch:     int(r.int()),
			Leader:    int(r.int()),
			Escalated: int(r.int()),
			TTLMillis: r.int(),
		}
	case tagRatioCorrection:
		rc := RatioCorrection{Round: int(r.int()), Seq: r.int()}
		rc.Edges, rc.X = r.ratios()
		r.fail(checkAscending(rc.Edges))
		kind, body = KindRatioCorrection, rc
	default:
		return Message{}, fmt.Errorf("transport: unknown binary kind tag 0x%02x", frame[0])
	}
	s.list, s.counts = r.list, r.counts // grown, perhaps, for the next frame
	if r.err != nil {
		return Message{}, fmt.Errorf("transport: decoding binary %s frame: %w", kind, r.err)
	}
	if len(r.buf) != 0 {
		return Message{}, fmt.Errorf("transport: binary %s frame has %d trailing bytes", kind, len(r.buf))
	}
	return Message{Kind: kind, Body: body}, nil
}

// --- encode helpers ---

func appendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func appendLen(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

func appendFloat(dst []byte, f float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	return append(dst, tmp[:]...)
}

// appendCensus appends a single census, the one that carries its round.
func appendCensus(dst []byte, c *Census) []byte {
	dst = appendInt(dst, int64(c.Edge))
	dst = appendInt(dst, int64(c.Round))
	return appendCounts(dst, c.Counts)
}

// appendCensusList appends the census list of a census_batch or a digest
// round: each census's edge as its difference from the edge before, then
// its counts. Census.Round is never read — the list's round stands for it —
// so a list whose censuses' storage has since been reused still encodes.
func appendCensusList(dst []byte, list []Census) []byte {
	dst = appendLen(dst, len(list))
	prev := 0
	for i := range list {
		dst = appendInt(dst, int64(list[i].Edge-prev))
		prev = list[i].Edge
		dst = appendCounts(dst, list[i].Counts)
	}
	return dst
}

// appendRatios appends a ratio list, the tail of a ratio_batch and of
// ratio_corrections: the edges as differences from the edge before, then
// the ratios as runs of bit-identical values.
func appendRatios(dst []byte, edges []int, xs []float64) []byte {
	dst = appendLen(dst, len(edges))
	prev := 0
	for _, e := range edges {
		dst = appendInt(dst, int64(e-prev))
		prev = e
	}
	for i := 0; i < len(xs); {
		bits, n := math.Float64bits(xs[i]), 1
		for i+n < len(xs) && math.Float64bits(xs[i+n]) == bits {
			n++
		}
		dst = appendLen(dst, n)
		dst = appendFloat(dst, xs[i])
		i += n
	}
	return dst
}

func appendCounts(dst []byte, counts []int) []byte {
	dst = appendLen(dst, len(counts))
	for _, n := range counts {
		dst = appendInt(dst, int64(n))
	}
	return dst
}

// appendRuns appends items as the fewest runs, refusing an item whose
// modality is not exactly one sensor type.
func appendRuns(dst []byte, items []Item) ([]byte, error) {
	runs := 0
	for i, it := range items {
		if !it.Modality.Valid() {
			return nil, fmt.Errorf("transport: item %d has modality %v, not one sensor type", i, it.Modality)
		}
		if i == 0 || !extendsRun(items[i-1], it) {
			runs++
		}
	}
	dst = appendLen(dst, runs)
	for i := 0; i < len(items); {
		first, mask := items[i], byte(items[i].Modality)
		for i++; i < len(items) && extendsRun(items[i-1], items[i]); i++ {
			mask |= byte(items[i].Modality)
		}
		dst = appendInt(dst, int64(first.Owner))
		dst = append(dst, mask)
	}
	return dst, nil
}

// extendsRun reports whether b continues the run that a ends.
func extendsRun(a, b Item) bool {
	return b.Owner == a.Owner && b.Modality > a.Modality
}

// --- decode helpers ---

// byteReader consumes a binary frame with sticky errors, so decode paths
// read fields unconditionally and check once at the end. The census kinds'
// lists and counts are cut from list and counts, in order, and are replaced
// by larger ones when they run short.
type byteReader struct {
	buf    []byte
	err    error
	list   []Census
	counts []int
}

func (r *byteReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *byteReader) int() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) > 0 && r.buf[0] < 0x80 { // one byte: -64..63 zig-zagged
		b := int64(r.buf[0])
		r.buf = r.buf[1:]
		return b>>1 ^ -(b & 1)
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(fmt.Errorf("truncated varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// uint reads a uvarint.
func (r *byteReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := uint64(r.buf[0])
		r.buf = r.buf[1:]
		return v
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(fmt.Errorf("truncated length"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// len reads a collection length and bounds it by the bytes remaining given
// a minimum encoded size per element, so a corrupt length can never drive a
// huge allocation.
func (r *byteReader) len(minElemBytes int) int {
	v := r.uint()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if v > uint64(len(r.buf)/minElemBytes) {
		r.fail(fmt.Errorf("length %d exceeds remaining %d bytes", v, len(r.buf)))
		return 0
	}
	return int(v)
}

func (r *byteReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail(fmt.Errorf("truncated float64"))
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return math.Float64frombits(bits)
}

func (r *byteReader) str() string {
	n := r.len(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.buf[:n]) // copies: the frame buffer is pooled
	r.buf = r.buf[n:]
	return s
}

// censuses reads a census list — the shared tail of the census_batch and
// digest encodings — into r's list storage, every census in the list's
// round. Each census is at least 2 bytes (edge delta, empty counts). Every
// Counts is cut from r's counts storage, capped so an append to one census
// cannot run into the next. When that runs short it is replaced by one sized
// for the frame so far plus the rest of the list at the K in hand, never
// above the bytes left (a count is at least one byte), so a corrupt length
// buys no more memory per frame byte than a make per census would, and a
// frame of the same shape next time fits whole.
func (r *byteReader) censuses(round int) []Census {
	n := r.len(2)
	if r.err != nil || n == 0 {
		return nil
	}
	if n > cap(r.list)-len(r.list) {
		r.list = make([]Census, 0, len(r.list)+n)
	}
	at := len(r.list)
	r.list = r.list[:at+n]
	out := r.list[at : at+n : at+n]
	edge := 0
	for i := range out {
		edge += int(r.int())
		out[i] = Census{Edge: edge, Round: round}
		k := r.len(1)
		out[i].Counts = r.ints(k, min((n-i)*k, len(r.buf)))
	}
	return out
}

// ratios reads a ratio list. An edge delta is at least a byte, so the count
// is capped at one entry per byte left, and the edges and ratios it sizes
// hold at most 16 bytes per frame byte. Every run must be nonempty, stay
// within the list and differ from the run before, so that a list has one
// encoding.
func (r *byteReader) ratios() (edges []int, xs []float64) {
	n := r.len(1)
	if r.err != nil || n == 0 {
		return nil, nil
	}
	edges, xs = make([]int, n), make([]float64, n)
	edge := 0
	for i := range edges {
		edge += int(r.int())
		edges[i] = edge
	}
	for i := 0; i < n && r.err == nil; {
		run, x := r.uint(), r.float()
		if run == 0 || run > uint64(n-i) || (i > 0 && math.Float64bits(x) == math.Float64bits(xs[i-1])) {
			r.fail(fmt.Errorf("ratio run of %d at entry %d of %d is empty, overruns the list or repeats the run before", run, i, n))
			break
		}
		for end := i + int(run); i < end; i++ {
			xs[i] = x
		}
	}
	return edges, xs
}

// checkAscending refuses a correction's edge set unless it rises strictly
// from 0 or above, so a duplicated or unsorted set never reaches a link. On
// the decode side it also catches a delta that overflowed.
func checkAscending(edges []int) error {
	for i, e := range edges {
		if e < 0 || (i > 0 && e <= edges[i-1]) {
			return fmt.Errorf("ratio correction edges are not ascending at %d", e)
		}
	}
	return nil
}

// ints reads n varints into a capped slice of r's counts storage, which,
// when short, is replaced by one with room for the frame's counts so far and
// rest more (at least n); none reads as nil.
func (r *byteReader) ints(n, rest int) []int {
	if n == 0 {
		return nil
	}
	if n > cap(r.counts)-len(r.counts) {
		r.counts = make([]int, 0, len(r.counts)+max(n, rest))
	}
	at := len(r.counts)
	r.counts = r.counts[:at+n]
	out := r.counts[at : at+n : at+n]
	for i := range out {
		out[i] = int(r.int())
	}
	return out
}

// mask reads a sensor set.
func (r *byteReader) mask() sensor.Mask {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail(fmt.Errorf("truncated mask"))
		return 0
	}
	m := sensor.Mask(r.buf[0])
	r.buf = r.buf[1:]
	if !m.Valid() {
		r.fail(fmt.Errorf("mask %#x has bits outside the sensor set", uint8(m)))
	}
	return m
}

// runs reads a run list into dst's backing array as items, growing it when
// the list is longer than any read into it before. An empty list leaves a
// nil dst nil.
func (r *byteReader) runs(dst []Item) []Item {
	n := r.len(2)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n && r.err == nil; i++ {
		owner, mask := int(r.int()), r.mask()
		if mask == 0 {
			r.fail(fmt.Errorf("run %d is empty", i))
		}
		if r.err == nil {
			dst = AppendRun(dst, owner, mask)
		}
	}
	return dst
}
