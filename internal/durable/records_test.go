package durable

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/israce"
)

// TestEncodeRoundFormat checks the hand-appended round record three ways:
// it decodes back to the record, a record json.Marshal wrote (the encoder
// before this one, and every journal already on disk) decodes to the same
// record, and where region order cannot differ (json.Marshal sorts map keys
// as strings, EncodeRound as numbers; single digits sort alike) the two
// encodings are the same bytes.
func TestEncodeRoundFormat(t *testing.T) {
	wide := map[int][]int{}
	for region := 0; region < 120; region++ {
		wide[region] = []int{region, 100 - region, 0, 12345678}
	}
	for name, rec := range map[string]RoundRecord{
		"empty":        {},
		"nil census":   {Round: 3},
		"empty census": {Round: 4, Censuses: map[int][]int{}},
		"plain":        {Round: 7, Censuses: map[int][]int{0: {1, 2, 3}, 1: {0, 0, 4}, 9: {5}}},
		"degraded":     {Round: 8, Degraded: true, Censuses: map[int][]int{2: {9, 0}, 5: nil, 6: {}}},
		"corrected":    {Round: 9, Corrected: true, Censuses: map[int][]int{0: {7}}},
		"both flags":   {Round: 1 << 40, Degraded: true, Corrected: true, Censuses: map[int][]int{3: {1}}},
		"wide":         {Round: 10, Censuses: wide},
		"negative":     {Round: -1, Censuses: map[int][]int{-2: {-3, 4}}},
	} {
		got, err := EncodeRound(rec)
		if err != nil {
			t.Fatalf("%s: EncodeRound: %v", name, err)
		}
		back, err := DecodeRound(got)
		if err != nil {
			t.Fatalf("%s: DecodeRound(%s): %v", name, got, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Errorf("%s: round trip through %s gave %+v, want %+v", name, got, back, rec)
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
		if name != "wide" && !bytes.Equal(got, old) {
			t.Errorf("%s: EncodeRound wrote %s, json.Marshal %s", name, got, old)
		}
	}
}

// TestCorrectedRecordForms pins the two forms a Corrected record has on
// disk: the delta a rewind writes — the late census alone — and the whole
// corrected round that journals from before the delta form hold. Both decode
// under the same flag; the replayer merges either into the buffered round.
func TestCorrectedRecordForms(t *testing.T) {
	delta := RoundRecord{Round: 9, Corrected: true, Censuses: map[int][]int{3: {0, 2, 5}}}
	const deltaBytes = `{"round":9,"censuses":{"3":[0,2,5]},"corrected":true}`
	got, err := EncodeRound(delta)
	if err != nil || string(got) != deltaBytes {
		t.Errorf("EncodeRound(delta) = %s, %v; want %s", got, err, deltaBytes)
	}
	const fullBytes = `{"round":9,"degraded":true,"censuses":{"0":[4,1,2],"3":[0,2,5]},"corrected":true}`
	full := RoundRecord{Round: 9, Degraded: true, Corrected: true, Censuses: map[int][]int{0: {4, 1, 2}, 3: {0, 2, 5}}}
	for payload, want := range map[string]RoundRecord{deltaBytes: delta, fullBytes: full} {
		back, err := DecodeRound([]byte(payload))
		if err != nil || !reflect.DeepEqual(back, want) {
			t.Errorf("DecodeRound(%s) = %+v, %v; want %+v", payload, back, err, want)
		}
	}
}

// TestEncodeRoundAllocs pins a thousand-region record at the region index,
// the payload and at most one growth of it — and a journal's steady-state
// AppendRound, which encodes and frames through buffers it keeps, at none,
// inline or started and waited for.
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
