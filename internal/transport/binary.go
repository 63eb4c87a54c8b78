package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/sensor"
)

// binaryCodec is the wire format (version 2): a compact tag+varint encoding
// of the thirteen protocol payloads.
//
// Frame layout (after the 4-byte big-endian length prefix):
//
//	frame   := kindTag payload
//	kindTag := 1 hello | 2 census | 3 ratio | 4 policy
//	         | 5 upload | 6 delivery | 7 ack | 8 lease
//	         | 10 census_batch | 11 ratio_batch | 12 digest
//	         | 13 hood_beat | 14 ratio_corrections     (9 is retired)
//	int     := zigzag varint            (encoding/binary PutVarint)
//	len     := uvarint                  (encoding/binary PutUvarint)
//	f64     := 8-byte little-endian IEEE-754 bits
//	str     := len bytes
//
//	hello    := int(vehicle)
//	census   := int(edge) int(round) len [int(count)]...
//	ratio    := int(round) f64(x)
//	policy   := int(round) f64(x) len [f64(share)]...
//	item     := int(owner) int(modality) int(seq)
//	upload   := int(vehicle) int(round) int(decision) len [item]...
//	delivery := int(round) len [item]...
//	ack      := str(err)
//	lease    := int(edge) int(ttl_ms)
//	census_batch := int(shard) int(round) len [census]...
//	ratio_batch  := int(round) len [int(edge)]... [f64(x)]...
//	digest_round := int(round) int(degraded 0|1) len [census]...
//	digest       := int(neighborhood) int(of) len [int(member)]... len [digest_round]...
//	hood_beat    := int(hood) int(epoch) int(leader) int(escalated) int(ttl_ms)
//	ratio_corrections := int(round) int(seq) len [int(edge_delta)]... [f64(x)]...
//
// A correction's edges are strictly ascending and cross the wire as the
// first edge (>= 0) followed by the positive differences between neighbours,
// so a shard's few hundred regions cost a byte or two each. Tag 9 was the
// one-region ratio_correction this layout replaced; it is refused like any
// unknown tag, so a peer still sending it gets an error, not a misread.
//
// Decoding is strict: truncated fields, lengths that cannot fit in the
// remaining bytes (which also caps decode allocations), unknown kind tags,
// edge sets out of order, and trailing garbage all fail.
type binaryCodec struct{}

// Binary kind tags (wire stable — append only).
const (
	tagHello byte = iota + 1
	tagCensus
	tagRatio
	tagPolicy
	tagUpload
	tagDelivery
	tagAck
	tagLease
	_ // 9: the retired one-region ratio_correction
	tagCensusBatch
	tagRatioBatch
	tagDigest
	tagHoodBeat
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
		dst = appendLen(dst, len(p.Shares))
		for _, s := range p.Shares {
			dst = appendFloat(dst, s)
		}
		return dst, nil
	case KindUpload:
		u, err := typedBody[Upload](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagUpload)
		dst = appendInt(dst, int64(u.Vehicle))
		dst = appendInt(dst, int64(u.Round))
		dst = appendInt(dst, int64(u.Decision))
		return appendItems(dst, u.Items), nil
	case KindDelivery:
		d, err := typedBody[Delivery](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagDelivery)
		dst = appendInt(dst, int64(d.Round))
		return appendItems(dst, d.Items), nil
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
		dst = append(dst, tagRatioCorrection)
		dst = appendInt(dst, int64(rc.Round))
		dst = appendInt(dst, rc.Seq)
		dst = appendLen(dst, len(rc.Edges))
		prev := 0
		for i, e := range rc.Edges {
			if e < 0 || (i > 0 && e <= prev) {
				return nil, fmt.Errorf("transport: ratio correction edges are not ascending at %d", e)
			}
			dst = appendInt(dst, int64(e-prev))
			prev = e
		}
		for _, x := range rc.X {
			dst = appendFloat(dst, x)
		}
		return dst, nil
	case KindCensusBatch:
		cb, err := typedBody[CensusBatch](m)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagCensusBatch)
		dst = appendInt(dst, int64(cb.Shard))
		dst = appendInt(dst, int64(cb.Round))
		dst = appendLen(dst, len(cb.Censuses))
		for i := range cb.Censuses {
			dst = appendCensus(dst, &cb.Censuses[i])
		}
		return dst, nil
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
		dst = appendLen(dst, len(rb.Edges))
		for _, e := range rb.Edges {
			dst = appendInt(dst, int64(e))
		}
		for _, x := range rb.X {
			dst = appendFloat(dst, x)
		}
		return dst, nil
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
			dst = appendLen(dst, len(dr.Censuses))
			for i := range dr.Censuses {
				dst = appendCensus(dst, &dr.Censuses[i])
			}
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
// delivery, ack) and an edge's per-round ratio reply decode into. A TCP conn
// keeps one and reuses it from frame to frame, which is what makes a received
// body valid only until the conn's next Recv; Decode hands in an empty one,
// so its bodies are the caller's. A body is allocated the first time its
// kind arrives — an edge-side conn never sees a delivery, a vehicle-side
// conn never an upload — and its slice grows to the largest frame of that
// kind seen.
type recvScratch struct {
	ratio    *Ratio
	policy   *Policy
	upload   *Upload
	delivery *Delivery
	ack      *Ack
}

// deliveryPool holds the delivery bodies no conn is lending out. A delivery
// is the one large body — 60 items are 1.5 KB where the other three kinds
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

// decodeBinary parses one frame. The scratch kinds come back as pointers
// into s; every other kind — census, batch, digest and ratio-batch
// consumers hold their slices across rounds — as a freshly allocated value.
func decodeBinary(frame []byte, s *recvScratch) (Message, error) {
	if len(frame) == 0 {
		return Message{}, fmt.Errorf("transport: empty binary frame")
	}
	r := byteReader{buf: frame[1:]}
	var (
		kind Kind
		body interface{}
	)
	switch frame[0] {
	case tagHello:
		kind = KindHello
		body = Hello{Vehicle: int(r.int())}
	case tagCensus:
		c := Census{Edge: int(r.int()), Round: int(r.int())}
		n := r.len(1)
		if n > 0 {
			c.Counts = make([]int, n)
			for i := range c.Counts {
				c.Counts[i] = int(r.int())
			}
		}
		kind, body = KindCensus, c
	case tagRatio:
		if s.ratio == nil {
			s.ratio = new(Ratio)
		}
		s.ratio.Round, s.ratio.X = int(r.int()), r.float()
		kind, body = KindRatio, s.ratio
	case tagPolicy:
		if s.policy == nil {
			s.policy = new(Policy)
		}
		p := s.policy
		p.Round, p.X = int(r.int()), r.float()
		n := r.len(8)
		p.Shares = append(p.Shares[:0], make([]float64, n)...)
		for i := range p.Shares {
			p.Shares[i] = r.float()
		}
		kind, body = KindPolicy, p
	case tagUpload:
		if s.upload == nil {
			s.upload = new(Upload)
		}
		u := s.upload
		u.Vehicle, u.Round, u.Decision = int(r.int()), int(r.int()), int(r.int())
		u.Items = r.items(u.Items)
		kind, body = KindUpload, u
	case tagDelivery:
		if s.delivery == nil {
			s.delivery = deliveryPool.Get().(*Delivery)
		}
		d := s.delivery
		d.Round = int(r.int())
		d.Items = r.items(d.Items)
		kind, body = KindDelivery, d
	case tagAck:
		if s.ack == nil {
			s.ack = new(Ack)
		}
		s.ack.Err = r.str()
		kind, body = KindAck, s.ack
	case tagLease:
		kind = KindLease
		body = Lease{Edge: int(r.int()), TTLMillis: r.int()}
	case tagCensusBatch:
		cb := CensusBatch{Shard: int(r.int()), Round: int(r.int())}
		cb.Censuses = r.censuses()
		kind, body = KindCensusBatch, cb
	case tagRatioBatch:
		rb := RatioBatch{Round: int(r.int())}
		// Each entry is at least 9 bytes (1-byte edge varint + 8-byte float).
		if n := r.len(9); n > 0 {
			rb.Edges = make([]int, n)
			for i := range rb.Edges {
				rb.Edges[i] = int(r.int())
			}
			rb.X = make([]float64, n)
			for i := range rb.X {
				rb.X[i] = r.float()
			}
		}
		kind, body = KindRatioBatch, rb
	case tagDigest:
		d := Digest{Neighborhood: int(r.int()), Of: int(r.int())}
		if n := r.len(1); n > 0 {
			d.Members = make([]int, n)
			for i := range d.Members {
				d.Members[i] = int(r.int())
			}
		}
		// Each digest round is at least 3 bytes (round, degraded, empty list).
		if n := r.len(3); n > 0 {
			d.Rounds = make([]DigestRound, n)
			for i := range d.Rounds {
				dr := DigestRound{Round: int(r.int()), Degraded: r.int() != 0}
				dr.Censuses = r.censuses()
				d.Rounds[i] = dr
			}
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
		// Each entry is at least 9 bytes (1-byte delta varint + 8-byte float).
		if n := r.len(9); n > 0 {
			rc.Edges = make([]int, n)
			edge := 0
			for i := range rc.Edges {
				delta := int(r.int())
				if delta < 0 || (i > 0 && delta == 0) || edge+delta < 0 {
					r.fail(fmt.Errorf("edge delta %d at entry %d: edges must ascend from 0", delta, i))
				}
				edge += delta
				rc.Edges[i] = edge
			}
			rc.X = make([]float64, n)
			for i := range rc.X {
				rc.X[i] = r.float()
			}
		}
		kind, body = KindRatioCorrection, rc
	default:
		return Message{}, fmt.Errorf("transport: unknown binary kind tag 0x%02x", frame[0])
	}
	if r.err != nil {
		return Message{}, fmt.Errorf("transport: decoding binary %s frame: %w", kind, r.err)
	}
	if len(r.buf) != 0 {
		return Message{}, fmt.Errorf("transport: binary %s frame has %d trailing bytes", kind, len(r.buf))
	}
	return Message{Kind: kind, Body: body}, nil
}

// --- encode helpers ---

func appendInt(dst []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendLen(dst []byte, n int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], uint64(n))
	return append(dst, tmp[:w]...)
}

func appendFloat(dst []byte, f float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	return append(dst, tmp[:]...)
}

// appendCensus appends one census body (edge, round, counts) — the shared
// tail of the census, census_batch, and digest encodings.
func appendCensus(dst []byte, c *Census) []byte {
	dst = appendInt(dst, int64(c.Edge))
	dst = appendInt(dst, int64(c.Round))
	dst = appendLen(dst, len(c.Counts))
	for _, n := range c.Counts {
		dst = appendInt(dst, int64(n))
	}
	return dst
}

func appendItems(dst []byte, items []Item) []byte {
	dst = appendLen(dst, len(items))
	for _, it := range items {
		dst = appendInt(dst, int64(it.Owner))
		dst = appendInt(dst, int64(it.Modality))
		dst = appendInt(dst, int64(it.Seq))
	}
	return dst
}

// --- decode helpers ---

// byteReader consumes a binary frame with sticky errors, so decode paths
// read fields unconditionally and check once at the end.
type byteReader struct {
	buf []byte
	err error
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
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(fmt.Errorf("truncated varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// len reads a collection length and bounds it by the bytes remaining given
// a minimum encoded size per element, so a corrupt length can never drive a
// huge allocation.
func (r *byteReader) len(minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(fmt.Errorf("truncated length"))
		return 0
	}
	r.buf = r.buf[n:]
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
// digest encodings. Each census is at least 3 bytes (edge, round, empty
// counts). Every Counts is cut from one slab per list, capped so an append
// to one census cannot run into the next. The slab is sized for the rest of
// the list at the K in hand, never above the bytes left (a count is at least
// one byte), so a corrupt length buys no more memory per frame byte than a
// make per census would; a list of mixed K starts a new slab when short.
func (r *byteReader) censuses() []Census {
	n := r.len(3)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Census, n)
	var slab []int
	for i := range out {
		c := Census{Edge: int(r.int()), Round: int(r.int())}
		if k := r.len(1); k > 0 {
			if k > len(slab) {
				slab = make([]int, min((n-i)*k, len(r.buf)))
			}
			c.Counts, slab = slab[:k:k], slab[k:]
			for j := range c.Counts {
				c.Counts[j] = int(r.int())
			}
		}
		out[i] = c
	}
	return out
}

// items reads an item list into dst's backing array, growing it when the
// list is longer than any read into it before. An empty list leaves a nil
// dst nil.
func (r *byteReader) items(dst []Item) []Item {
	n := r.len(3)
	dst = append(dst[:0], make([]Item, n)...)
	for i := range dst {
		dst[i] = Item{
			Owner:    int(r.int()),
			Modality: sensor.Type(r.int()),
			Seq:      int(r.int()),
		}
	}
	return dst
}
