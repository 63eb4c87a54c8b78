package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/israce"
	"repro/internal/transport"
)

// formatCases are round records at every corner of the layout: nil and empty
// census maps, nil and empty counts, both flags, a round that needs a long
// varint, a set wider than a bitmap word and a negative region.
func formatCases() map[string]RoundRecord {
	wide := map[int][]int{}
	for region := 0; region < 120; region++ {
		wide[region] = []int{region, 100 - region, 0, 12345678}
	}
	return map[string]RoundRecord{
		"empty":        {},
		"nil census":   {Round: 3},
		"empty census": {Round: 4, Censuses: map[int][]int{}},
		"plain":        {Round: 7, Censuses: map[int][]int{0: {1, 2, 3}, 1: {0, 0, 4}, 9: {5}}},
		"degraded":     {Round: 8, Degraded: true, Censuses: map[int][]int{2: {9, 0}, 5: nil, 6: {}}},
		"corrected":    {Round: 9, Corrected: true, Censuses: map[int][]int{0: {7}}},
		"both flags":   {Round: 1 << 40, Degraded: true, Corrected: true, Censuses: map[int][]int{3: {1}}},
		"wide":         {Round: 10, Censuses: wide},
		"negative":     {Round: -1, Censuses: map[int][]int{-2: {-3, 4}}},
	}
}

// TestEncodeRoundFormat checks the binary round record three ways: it
// decodes back to the record, a record json.Marshal wrote (every journal
// written before the binary body) decodes to the same record, and the same
// record built by inserting its regions in different orders encodes to the
// same bytes.
func TestEncodeRoundFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, rec := range formatCases() {
		got, err := EncodeRound(rec)
		if err != nil {
			t.Fatalf("%s: EncodeRound: %v", name, err)
		}
		if got[0] != tagBinary {
			t.Errorf("%s: EncodeRound wrote tag %#x, want %#x", name, got[0], tagBinary)
		}
		back, err := DecodeRound(got)
		if err != nil {
			t.Fatalf("%s: DecodeRound(%x): %v", name, got, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Errorf("%s: round trip through %x gave %+v, want %+v", name, got, back, rec)
		}
		old, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fromOld, err := DecodeRound(old)
		if err != nil {
			t.Fatalf("%s: DecodeRound of a json.Marshal payload: %v", name, err)
		}
		if !reflect.DeepEqual(fromOld, rec) {
			t.Errorf("%s: json.Marshal payload decoded to %+v, want %+v", name, fromOld, rec)
		}
		if rec.Censuses == nil {
			continue
		}
		regions := make([]int, 0, len(rec.Censuses))
		for region := range rec.Censuses {
			regions = append(regions, region)
		}
		slices.Sort(regions)
		for _, order := range [][]int{regions, reversed(regions), shuffled(rng, regions)} {
			refilled := rec
			refilled.Censuses = make(map[int][]int)
			for _, region := range order {
				refilled.Censuses[region] = rec.Censuses[region]
			}
			if again, _ := EncodeRound(refilled); !bytes.Equal(again, got) {
				t.Errorf("%s: regions inserted as %v encode to %x, want %x", name, order, again, got)
			}
		}
	}
	for _, bad := range []string{"", "\x02", "\x7b", "[1]"} {
		if _, err := DecodeRound([]byte(bad)); err == nil {
			t.Errorf("DecodeRound(%q) accepted it", bad)
		}
	}
}

func reversed(s []int) []int {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}

func shuffled(rng *rand.Rand, s []int) []int {
	out := slices.Clone(s)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestCorrectedRecordForms pins the two forms a Corrected record has on
// disk: the delta a rewind writes — the late census alone — and the whole
// corrected round that journals from before the delta form hold. Both decode
// under the same flag; the replayer merges either into the buffered round.
// The delta's binary bytes are golden: tag, round 9, the corrected flag, one
// census, region 3, three counts.
func TestCorrectedRecordForms(t *testing.T) {
	delta := RoundRecord{Round: 9, Corrected: true, Censuses: map[int][]int{3: {0, 2, 5}}}
	const deltaHex = "01" + "12" + "02" + "01" + "06" + "04" + "00040a"
	got, err := EncodeRound(delta)
	if err != nil || hex.EncodeToString(got) != deltaHex {
		t.Errorf("EncodeRound(delta) = %x, %v; want %s", got, err, deltaHex)
	}
	deltaBinary, _ := hex.DecodeString(deltaHex)
	const deltaJSON = `{"round":9,"censuses":{"3":[0,2,5]},"corrected":true}`
	const fullJSON = `{"round":9,"degraded":true,"censuses":{"0":[4,1,2],"3":[0,2,5]},"corrected":true}`
	full := RoundRecord{Round: 9, Degraded: true, Corrected: true, Censuses: map[int][]int{0: {4, 1, 2}, 3: {0, 2, 5}}}
	for payload, want := range map[string]RoundRecord{string(deltaBinary): delta, deltaJSON: delta, fullJSON: full} {
		back, err := DecodeRound([]byte(payload))
		if err != nil || !reflect.DeepEqual(back, want) {
			t.Errorf("DecodeRound(%q) = %+v, %v; want %+v", payload, back, err, want)
		}
	}
}

// TestEncodeRoundMatchesMapEncoder holds the encoder to the one it replaced,
// which ordered a census map's regions itself (oracleAppendRound, below), on
// random records: dense and sparse, degraded and Corrected, some with nil or
// empty counts, a nil census map or a negative region. Each is encoded from
// its ascending list — the form census sets hand out — and from its map, and
// both must write the old encoder's bytes.
func TestEncodeRoundMatchesMapEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch []transport.Census
	for n := 0; n < 2000; n++ {
		rec := RoundRecord{Round: rng.Intn(1<<20) - 8, Degraded: rng.Intn(3) == 0, Corrected: rng.Intn(4) == 0}
		if rng.Intn(20) > 0 {
			size := rng.Intn(300)
			span := size + rng.Intn(64*(size+1))
			rec.Censuses = make(map[int][]int, size)
			for len(rec.Censuses) < size {
				var counts []int
				switch rng.Intn(10) {
				case 0: // nil counts
				case 1:
					counts = []int{}
				default:
					counts = make([]int, 1+rng.Intn(8))
					for k := range counts {
						counts[k] = rng.Intn(500) - rng.Intn(2)*rng.Intn(3)
					}
				}
				rec.Censuses[rng.Intn(span)] = counts
			}
			if size > 0 && rng.Intn(8) == 0 {
				rec.Censuses[-1-rng.Intn(5)] = []int{1}
			}
		}
		want := oracleAppendRound(nil, rec)
		if got, _ := EncodeRound(rec); !bytes.Equal(got, want) {
			t.Fatalf("record %d in map form: EncodeRound = %x, want %x", n, got, want)
		}
		listed := RoundRecord{Round: rec.Round, Degraded: rec.Degraded, Corrected: rec.Corrected}
		if rec.Censuses != nil {
			listed.Sorted = []transport.Census{}
			regions, _ := ascending(rec.Censuses, nil, nil)
			for _, region := range regions {
				listed.Sorted = append(listed.Sorted, transport.Census{Edge: region, Round: rec.Round, Counts: rec.Censuses[region]})
			}
		}
		if got, _ := EncodeRound(listed); !bytes.Equal(got, want) {
			t.Fatalf("record %d as a list: EncodeRound = %x, want %x", n, got, want)
		}
		if got := appendRound(nil, &scratch, rec); !bytes.Equal(got, want) {
			t.Fatalf("record %d through a reused scratch: %x, want %x", n, got, want)
		}
	}
}

// oracleAppendRound is the map encoder EncodeRound had before census sets
// were indexed by region, regions ordered by a bitmap walk (ascending).
func oracleAppendRound(b []byte, rec RoundRecord) []byte {
	var flags byte
	for bit, set := range [...]bool{rec.Degraded, rec.Corrected, rec.Censuses == nil} {
		if set {
			flags |= 1 << bit
		}
	}
	b = append(binary.AppendVarint(append(b, tagBinary), int64(rec.Round)), flags)
	b = binary.AppendUvarint(b, uint64(len(rec.Censuses)))
	prev := 0
	regions, _ := ascending(rec.Censuses, nil, nil)
	for _, region := range regions {
		b = appendInts(binary.AppendVarint(b, int64(region-prev)), rec.Censuses[region])
		prev = region
	}
	return b
}

// ascending appends the keys of m to keys in ascending order. Keys from 0 to
// below 64 per entry set bits in a bitmap of words, read back lowest first and
// cleared; a set with any other key is sorted. words must be all zero and
// comes back so, grown to len(m) when shorter.
func ascending[V any](m map[int]V, keys []int, words []uint64) ([]int, []uint64) {
	if len(words) < len(m) {
		words = make([]uint64, len(m))
	}
	keys = slices.Grow(keys, len(m))
	top := -1 // the highest word with a bit set
	for k := range m {
		if k < 0 || k>>6 >= len(m) {
			clear(words[:top+1])
			for k := range m {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			return keys, words
		}
		words[k>>6] |= 1 << (k & 63)
		top = max(top, k>>6)
	}
	for w, word := range words[:top+1] {
		for ; word != 0; word &= word - 1 {
			keys = append(keys, w<<6|bits.TrailingZeros64(word))
		}
		words[w] = 0
	}
	return keys, words
}

// TestEncodeRoundAllocs pins a thousand-region record in map form at the
// list its regions are sorted in and the payload (a bound of 3 leaves one
// spare); a journal's steady-state AppendRound, which
// encodes and frames through buffers it keeps, at none, inline or started
// and waited for; and DecodeRound at the census map and one slab for every
// census's counts.
func TestEncodeRoundAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	rec := RoundRecord{Round: 12, Censuses: make(map[int][]int, 1024)}
	for region := 0; region < 1024; region++ {
		rec.Censuses[region] = []int{40, 13, 9, 8, 11, 7, 2, 10}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeRound(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("EncodeRound at 1024 censuses: %.0f allocs, want at most 3", allocs)
	}

	payload, _ := EncodeRound(rec)
	var sink map[int][]int
	mapAllocs := testing.AllocsPerRun(20, func() { sink = make(map[int][]int, 1024) })
	allocs = testing.AllocsPerRun(20, func() {
		back, err := DecodeRound(payload)
		if err != nil {
			t.Fatal(err)
		}
		sink = back.Censuses
	})
	if allocs != mapAllocs+1 {
		t.Errorf("DecodeRound at 1024 censuses: %.0f allocs, want the map's %.0f and one slab", allocs, mapAllocs)
	}
	_ = sink

	j, _, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	allocs = testing.AllocsPerRun(20, func() {
		rec.Round++
		if _, err := j.AppendRound(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendRound at 1024 censuses: %.0f allocs, want 0", allocs)
	}
	// The same append begun on the journal's goroutine and waited for: no
	// goroutine, channel or result per round.
	allocs = testing.AllocsPerRun(20, func() {
		rec.Round++
		if _, err := j.WaitRound(j.StartRound(rec)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StartRound + WaitRound at 1024 censuses: %.0f allocs, want 0", allocs)
	}
}

// heapBound is what decoding a payload of n bytes may allocate, whatever its
// lengths claim: a map entry or a row header per two bytes, a count or a
// float per byte, and size-class rounding.
func heapBound(n int) uint64 { return 64*uint64(n) + 4096 }

// allocated is the heap f allocates: the least of three calls, so another
// goroutine's allocation does not count against it.
func allocated(f func()) uint64 {
	var ms runtime.MemStats
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}

// FuzzDecodeRound: no payload panics the decoder or buys it more heap than a
// small multiple of its size, and a binary payload that decodes re-encodes
// to the same bytes.
func FuzzDecodeRound(f *testing.F) {
	for _, rec := range formatCases() {
		b, _ := EncodeRound(rec)
		f.Add(b)
		old, _ := json.Marshal(rec)
		f.Add(old)
	}
	// A region id is a number read from the disk, never a size: a record
	// naming region 1<<40 decodes within the bound like any other (and a
	// coordinator refuses it as no member's; see the owners' recovery tests).
	far, _ := EncodeRound(RoundRecord{Round: 5, Censuses: map[int][]int{1 << 40: {3, 1}}})
	f.Add(far)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec RoundRecord
		var err error
		used := allocated(func() { rec, err = DecodeRound(payload) })
		if !israce.Enabled && len(payload) > 0 && payload[0] == tagBinary && used > heapBound(len(payload)) {
			t.Errorf("decoding %d bytes allocated %d", len(payload), used)
		}
		if err != nil || payload[0] == '{' {
			return
		}
		if again, _ := EncodeRound(rec); !bytes.Equal(again, payload) {
			t.Errorf("%x decoded to %+v, which encodes to %x", payload, rec, again)
		}
	})
}

// FuzzDecodeCheckpoint is FuzzDecodeRound for checkpoints.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, cp := range checkpointCases() {
		b, _ := AppendCheckpoint(nil, cp)
		f.Add(b)
		old, _ := json.Marshal(cp)
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var cp Checkpoint
		var err error
		used := allocated(func() { cp, err = DecodeCheckpoint(payload) })
		if !israce.Enabled && len(payload) > 0 && payload[0] == tagBinary && used > heapBound(len(payload)) {
			t.Errorf("decoding %d bytes allocated %d", len(payload), used)
		}
		if err != nil || payload[0] == '{' {
			return
		}
		if again, _ := AppendCheckpoint(nil, cp); !bytes.Equal(again, payload) {
			t.Errorf("%x decoded to %+v, which encodes to %x", payload, cp, again)
		}
	})
}
