package transport

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/israce"
)

// mixedBatch is a census batch whose K changes inside the list, with empty
// censuses between the full ones (an edge with no vehicles reports one).
func mixedBatch() CensusBatch {
	return CensusBatch{Shard: 1, Round: 3, Censuses: mixedCensuses(3)}
}

// mixedDigest carries the same shapes in each of two digest rounds.
func mixedDigest() Digest {
	return Digest{Neighborhood: 1, Of: 2, Members: []int{2, 3}, Rounds: []DigestRound{
		{Round: 6, Censuses: mixedCensuses(6)},
		{Round: 7, Degraded: true, Censuses: mixedCensuses(7)},
	}}
}

func mixedCensuses(round int) []Census {
	shapes := [][]int{{4, 2, 0}, nil, {1, 1, 1}, {9, 8, 7, 6, 5}, nil, nil, {3, 3}, {1, 2, 3, 4, 5}, {7}}
	out := make([]Census, len(shapes))
	for i, counts := range shapes {
		// Edges 0 5 1 6 2 7 3 8 4: the deltas rise and fall.
		out[i] = Census{Edge: i * 5 % len(shapes), Round: round, Counts: counts}
	}
	return out
}

// censusesPerMake is the census-list decoder the slab one replaced — one
// make per census — kept here as the reference the new one is compared with,
// on the same list layout: edge deltas, no round per census.
func censusesPerMake(r *byteReader, round int) []Census {
	n := r.len(2)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Census, n)
	edge := 0
	for i := range out {
		edge += int(r.int())
		c := Census{Edge: edge, Round: round}
		if k := r.len(1); k > 0 {
			c.Counts = make([]int, k)
			for j := range c.Counts {
				c.Counts[j] = int(r.int())
			}
		}
		out[i] = c
	}
	return out
}

func encodeFrameOf(t *testing.T, kind Kind, body interface{}) []byte {
	t.Helper()
	frame, err := Binary.AppendEncode(nil, mustEncode(t, kind, body))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// checkCapped fails for a census whose Counts could grow into memory it does
// not own.
func checkCapped(t *testing.T, where string, censuses []Census) {
	t.Helper()
	for i, c := range censuses {
		if cap(c.Counts) != len(c.Counts) {
			t.Errorf("%s census %d: Counts has len %d but cap %d", where, i, len(c.Counts), cap(c.Counts))
		}
	}
}

// TestBatchDecodeShapes: lists of mixed K and lists with empty censuses
// between full ones decode to exactly what was sent, on the batch path and
// the digest path, by both decoders and as the per-make reference does.
func TestBatchDecodeShapes(t *testing.T) {
	batch, digest := mixedBatch(), mixedDigest()
	for name, decode := range binaryDecoders(t) {
		m, err := decode(encodeFrameOf(t, KindCensusBatch, batch))
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if got, _ := typedBody[CensusBatch](m); !reflect.DeepEqual(got, batch) {
			t.Errorf("%s: batch decoded to\n%+v\nwant\n%+v", name, got, batch)
		} else {
			checkCapped(t, name+" batch", got.Censuses)
		}
		m, err = decode(encodeFrameOf(t, KindDigest, digest))
		if err != nil {
			t.Fatalf("%s: digest: %v", name, err)
		}
		if got, _ := typedBody[Digest](m); !reflect.DeepEqual(got, digest) {
			t.Errorf("%s: digest decoded to\n%+v\nwant\n%+v", name, got, digest)
		} else {
			for _, dr := range got.Rounds {
				checkCapped(t, name+" digest", dr.Censuses)
			}
		}
	}
	frame := encodeFrameOf(t, KindCensusBatch, batch)
	r := byteReader{buf: frame[3:]} // past the tag, the shard and the round
	if ref := censusesPerMake(&r, batch.Round); r.err != nil || !reflect.DeepEqual(ref, batch.Censuses) {
		t.Errorf("reference decoder: %v, %+v", r.err, ref)
	}
}

// uniformBatch is n censuses of k counts each.
func uniformBatch(n, k int) CensusBatch {
	batch := CensusBatch{Shard: 1, Round: 117, Censuses: make([]Census, n)}
	for e := range batch.Censuses {
		counts := make([]int, k)
		for j := range counts {
			counts[j] = (e*7 + j*13) % 100
		}
		batch.Censuses[e] = Census{Edge: e, Round: 117, Counts: counts}
	}
	return batch
}

// TestBatchDecodeNoAliasing: the censuses of a batch share one slab, and
// growing one of them must leave its neighbour as it was.
func TestBatchDecodeNoAliasing(t *testing.T) {
	batch := uniformBatch(8, 9)
	m, err := Binary.Decode(encodeFrameOf(t, KindCensusBatch, batch))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := typedBody[CensusBatch](m)
	got := body.Censuses
	checkCapped(t, "batch", got)
	for i := 0; i+1 < len(got); i++ {
		grown := append(got[i].Counts, -1, -2, -3)
		grown[0] = -9
		if !reflect.DeepEqual(got[i+1].Counts, batch.Censuses[i+1].Counts) {
			t.Fatalf("appending to census %d changed census %d: %v, want %v",
				i, i+1, got[i+1].Counts, batch.Censuses[i+1].Counts)
		}
		if got[i].Counts[0] == -9 {
			t.Fatalf("append to census %d's capped Counts wrote in place", i)
		}
	}
}

// TestBatchDecodeAllocs pins a shard-sized batch at the list, the slab and
// the boxed body — not one slice per census.
func TestBatchDecodeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	frame := encodeFrameOf(t, KindCensusBatch, uniformBatch(512, 9))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Binary.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("decoding a 512-census K=9 batch: %.1f allocs, want <= 4", allocs)
	}
}

// allocatedBytes is the heap f allocates per call (the least of a few tries,
// so another goroutine's allocation does not count against it).
func allocatedBytes(f func()) uint64 {
	const calls = 50
	var ms runtime.MemStats
	best := ^uint64(0)
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		if per := (ms.TotalAlloc - before) / calls; per < best {
			best = per
		}
	}
	return best
}

// TestBatchDecodeHostileLengths: a K larger than the bytes left and a census
// count the frame cannot hold are refused before any slab exists, at no more
// heap than the per-make decoder spent refusing the same bytes; where a
// plausible prefix does get a slab, the slab is bounded by the frame's bytes
// whatever the lengths claim; and a ratio list, capped at an entry per byte
// left, allocates at most 16 bytes per frame byte for its edges and ratios
// before its runs are refused.
func TestBatchDecodeHostileLengths(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes do not hold under the race detector")
	}
	// Lists as they follow a batch's shard and round.
	big := appendLen(nil, 1<<20)
	hugeK := append(append([]byte{0x02, 0x00}, big...), make([]byte, 64)...) // 2 censuses; edge 0, K = 2^20 in 64 bytes
	hugeN := append(append([]byte{}, big...), 0x00, 0x01, 0x02)              // 2^20 censuses in 3 bytes
	for name, list := range map[string][]byte{"K exceeds remaining": hugeK, "count far above the frame": hugeN} {
		var slabErr, makeErr error
		slab := allocatedBytes(func() {
			r := byteReader{buf: list}
			r.censuses(3)
			slabErr = r.err
		})
		perMake := allocatedBytes(func() {
			r := byteReader{buf: list}
			censusesPerMake(&r, 3)
			makeErr = r.err
		})
		if slabErr == nil || makeErr == nil {
			t.Errorf("%s: refused by slab decoder: %v, by per-make decoder: %v; want both", name, slabErr, makeErr)
		}
		if slab > perMake {
			t.Errorf("%s: slab decoder allocated %d bytes refusing it, per-make decoder %d", name, slab, perMake)
		}
	}

	// 30 censuses claimed, the first with 100 one-byte counts, then nothing:
	// the slab may be sized for what is left of the frame, never for 30 x 100.
	list := append([]byte{30, 0x00, 100}, make([]byte, 100)...)
	var err error
	got := allocatedBytes(func() {
		r := byteReader{buf: list}
		r.censuses(3)
		err = r.err
	})
	if err == nil {
		t.Error("a list cut short after its first census decoded")
	}
	intSize, censusSize := uint64(unsafe.Sizeof(int(0))), uint64(unsafe.Sizeof(Census{}))
	// The list, one slab of at most a count per frame byte, the error, and
	// size-class rounding on each.
	floor, limit := 100*intSize, 30*censusSize+uint64(len(list))*intSize+512
	if got < floor || got > limit {
		t.Errorf("a %d-byte list claiming 30 censuses of 100 counts allocated %d bytes, want %d..%d", len(list), got, floor, limit)
	}

	// Ratio lists, each refused. 200 one-byte deltas fill the count cap
	// exactly: the slices are sized, then the runs fail.
	half := []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F} // 0.5
	ratioBatch := func(b ...[]byte) []byte { return slices.Concat(append([][]byte{{0x15, 0x08}}, b...)...) }
	atCap := append([]byte{0xC8, 0x01}, bytes.Repeat([]byte{0x02}, 200)...) // 200 entries, edges 1..200
	for name, frame := range map[string][]byte{
		"ratio run of zero":                    ratioBatch([]byte{0x02, 0x00, 0x02, 0x00}, half),
		"ratio run longer than the entries":    ratioBatch([]byte{0x02, 0x00, 0x02, 0x03}, half),
		"ratio runs alike side by side":        ratioBatch([]byte{0x02, 0x00, 0x02, 0x01}, half, []byte{0x01}, half),
		"ratio runs short of the entries":      ratioBatch([]byte{0x02, 0x00, 0x02, 0x01}, half),
		"ratio count above a byte an entry":    ratioBatch(big, make([]byte, 64)),
		"ratio count at the cap, no runs":      ratioBatch(atCap),
		"correction count at the cap, no runs": slices.Concat([]byte{0x17, 0x08, 0x02}, atCap),
	} {
		var err error
		got := allocatedBytes(func() { _, err = Binary.Decode(frame) })
		if err == nil {
			t.Errorf("%s: %x decoded", name, frame)
		}
		// The edges and ratios, the errors, and size-class rounding.
		if limit := 16*uint64(len(frame)) + 1024; got > limit {
			t.Errorf("%s: a %d-byte frame allocated %d bytes refusing it, want <= %d", name, len(frame), got, limit)
		}
	}
}

// BenchmarkCensusBatchCodec encodes and decodes a flood-sized census batch:
// 512 censuses of K=8 counts, the counts a region of a few dozen vehicles
// reports (one or two varint bytes each).
func BenchmarkCensusBatchCodec(b *testing.B) {
	m, err := Encode(KindCensusBatch, uniformBatch(512, 8))
	if err != nil {
		b.Fatal(err)
	}
	frame, err := Binary.AppendEncode(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(frame))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = Binary.AppendEncode(buf[:0], m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Binary.Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
