package durable

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/game"
	"repro/internal/policy"
)

func replayAll(t *testing.T, s *Store) [][]byte {
	t.Helper()
	var out [][]byte
	n, err := s.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(out) {
		t.Fatalf("Replay reported %d records, callback saw %d", n, len(out))
	}
	return out
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, rec := range want {
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A crash mid-append leaves a torn tail; replay must drop it, keep every
// earlier record, and let appends continue from the truncation point.
func TestTornTailTruncatedOnReplay(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"short-header":    func(b []byte) []byte { return append(b, 0x00, 0x00) },
		"short-payload":   func(b []byte) []byte { return append(b, 0, 0, 0, 100, 1, 2, 3, 4, 'x') },
		"crc-mismatch":    func(b []byte) []byte { return append(b, 0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x') },
		"absurd-length":   func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) },
		"zeroed-trailing": func(b []byte) []byte { return append(b, make([]byte, 5)...) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := s.Append([]byte("good")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			s.Close()

			path := filepath.Join(dir, journalName)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read journal: %v", err)
			}
			goodLen := len(b)
			if err := os.WriteFile(path, tear(b), 0o644); err != nil {
				t.Fatalf("write torn journal: %v", err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			got := replayAll(t, s2)
			if len(got) != 1 || string(got[0]) != "good" {
				t.Fatalf("replayed %q, want just the good record", got)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(goodLen) {
				t.Fatalf("journal size after truncation = %v (%v), want %d", st.Size(), err, goodLen)
			}
			// Appends continue cleanly after the torn tail is gone.
			if err := s2.Append([]byte("after")); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			if got := replayAll(t, s2); len(got) != 2 || string(got[1]) != "after" {
				t.Fatalf("after re-append, replayed %q", got)
			}
		})
	}
}

func TestSnapshotAtomicWriteAndLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	if _, ok, err := s.LoadSnapshot(); err != nil || ok {
		t.Fatalf("LoadSnapshot on empty dir = ok=%v err=%v, want absent", ok, err)
	}
	if _, err := s.WriteSnapshot([]byte("v1")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if _, err := s.WriteSnapshot([]byte("v2")); err != nil {
		t.Fatalf("WriteSnapshot v2: %v", err)
	}
	got, ok, err := s.LoadSnapshot()
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v, want v2", got, ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("snapshot tmp file left behind (err=%v)", err)
	}

	// A corrupt checkpoint is an error, never silently ignored.
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("garbage"), 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	if _, _, err := s.LoadSnapshot(); err == nil {
		t.Fatalf("LoadSnapshot accepted a corrupt checkpoint")
	}
}

// segmentFiles lists the journal segment files in dir, sorted by name.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "journal*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	return names
}

func payloadOf(p string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(p), nil }
}

// A checkpoint that covers every journaled round leaves no record behind it:
// the closed segment is unlinked (not before the snapshot is durable, and
// never the active one), replay is empty, and new appends land in the
// segment the rotation made active. (Invariant 2.)
func TestCompactTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	s, err := OpenHooked(dir, func(op, path string) error {
		if op == "rename" || op == "remove" {
			ops = append(ops, op+" "+filepath.Base(path))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Append([]byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, err := s.checkpoint(payloadOf("state"), math.MaxInt, 3); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := s.WaitCheckpoint(); err != nil {
		t.Fatalf("background checkpoint: %v", err)
	}
	if want := []string{"rename " + snapshotName, "remove " + journalName}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("snapshot and unlink order = %q, want %q", ops, want)
	}
	if got := segmentFiles(t, dir); !reflect.DeepEqual(got, []string{"journal.00000001.wal", "journal.00000002.wal"}) {
		t.Fatalf("segments after a covering checkpoint = %q, want the active one and the spare", got)
	}
	if got := replayAll(t, s); len(got) != 0 {
		t.Fatalf("journal replayed %d records after a covering checkpoint, want 0", len(got))
	}
	snap, ok, err := s.LoadSnapshot()
	if err != nil || !ok || string(snap) != "state" {
		t.Fatalf("LoadSnapshot after checkpoint = %q ok=%v err=%v", snap, ok, err)
	}
	// New appends after the checkpoint are independent of the old journal.
	if err := s.Append([]byte("next")); err != nil {
		t.Fatalf("Append after checkpoint: %v", err)
	}
	if got := replayAll(t, s); len(got) != 1 || string(got[0]) != "next" {
		t.Fatalf("after checkpoint+append, replayed %q", got)
	}
}

// A checkpoint keeps every segment that holds a retained round: the window's
// records stay where they were appended, replay returns them after the
// rotation and after a reopen, and they go once a later checkpoint covers
// them.
func TestCompactRetainKeepsWindowRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for n := 0; n < 4; n++ {
		if _, err := j.AppendRound(round(n)); err != nil {
			t.Fatalf("AppendRound: %v", err)
		}
	}
	if err := j.Checkpoint(payloadOf("pre-window state"), []RoundRecord{round(2), round(3)}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Appends continue in the segment the rotation made active.
	if n, err := j.AppendRound(round(4)); err != nil || n != 1 {
		t.Fatalf("AppendRound after checkpoint = %d, %v; want 1 record since it", n, err)
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatalf("background checkpoint: %v", err)
	}
	snap, ok, err := j.LoadSnapshot()
	if err != nil || !ok || string(snap) != "pre-window state" {
		t.Fatalf("LoadSnapshot = %q ok=%v err=%v", snap, ok, err)
	}
	check := func(j *Journal, want ...int) {
		t.Helper()
		var got []int
		if err := j.Replay(func(r RoundRecord) error { got = append(got, r.Round); return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed rounds %v, want %v", got, want)
		}
	}
	check(j, 0, 1, 2, 3, 4)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	check(j2, 0, 1, 2, 3, 4)
	// A checkpoint that still retains round 4 cannot tell which replayed
	// segment holds it and keeps both; one retaining nothing unlinks them.
	if err := j2.Checkpoint(payloadOf("s2"), []RoundRecord{round(4)}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := j2.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	check(j2, 0, 1, 2, 3, 4)
	if err := j2.Checkpoint(payloadOf("s3"), nil); err != nil {
		t.Fatalf("Checkpoint retaining nothing: %v", err)
	}
	if err := j2.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	check(j2)
	if got := segmentFiles(t, dir); len(got) != 2 {
		t.Fatalf("segments after a covering checkpoint = %q, want the active one and the spare", got)
	}
}

func TestClosedStoreFails(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Close()
	if err := s.Append([]byte("x")); err != ErrStoreClosed {
		t.Fatalf("Append on closed store = %v, want ErrStoreClosed", err)
	}
	if _, err := s.Replay(func([]byte) error { return nil }); err != ErrStoreClosed {
		t.Fatalf("Replay on closed store = %v, want ErrStoreClosed", err)
	}
	if _, err := s.checkpoint(payloadOf("x"), 0, 0); err != ErrStoreClosed {
		t.Fatalf("checkpoint on closed store = %v, want ErrStoreClosed", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	frame := appendFrame(nil, payload)
	got, n, ok := parseFrame(frame)
	if !ok || n != len(frame) || string(got) != string(payload) {
		t.Fatalf("parseFrame = %q n=%d ok=%v", got, n, ok)
	}
	// Flipping any byte must fail the CRC (or the length bound).
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x01
		if p, _, ok := parseFrame(mut); ok && string(p) == string(payload) && i >= frameHeader {
			t.Fatalf("flip at %d went undetected", i)
		}
	}
	// Length prefix beyond MaxRecordBytes is rejected without allocating.
	var huge [frameHeader]byte
	binary.BigEndian.PutUint32(huge[0:4], MaxRecordBytes+1)
	if _, _, ok := parseFrame(huge[:]); ok {
		t.Fatalf("oversized length accepted")
	}
}

// checkpointCases are checkpoints whose floats a decimal round trip is most
// likely to bend — negative zero, a subnormal, the neighbours one ulp either
// side of a value — beside every field an owner sets, and nil beside empty.
func checkpointCases() map[string]Checkpoint {
	st := game.NewUniformState(2, 3, 0.4)
	st.P[0] = []float64{0.123456789012345, 0.5, 0.376543210987655}
	st.X[1] = 0.7071067811865476
	corners := game.NewUniformState(3, 4, 0)
	corners.P[0] = []float64{math.Copysign(0, -1), 5e-324, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0)}
	corners.P[2] = []float64{1, 0, 0, 0}
	corners.X = []float64{math.Copysign(0, -1), math.Nextafter(0.25, 0), math.Nextafter(0.25, 1)}
	return map[string]Checkpoint{
		"cloud": {
			Round: 41,
			State: st,
			FDS:   policy.FDSMemory{LastShortfall: []float64{0.25, 1e-17}, StallRounds: []int{3, 0}},
		},
		"float corners": {
			Round:            1 << 33,
			State:            corners,
			FDS:              policy.FDSMemory{LastShortfall: []float64{math.Copysign(0, -1), 5e-324, math.Nextafter(1, 2)}, StallRounds: []int{-1, 7, 1 << 40}},
			CorrectionSeq:    1 << 45,
			Escalated:        17,
			Epoch:            3,
			DigestWatermarks: map[int]int{0: 12, 3: 9, 700: 1, -4: 2},
		},
		"empty": {
			Round:            -1,
			State:            &game.State{P: [][]float64{}, X: []float64{}},
			FDS:              policy.FDSMemory{StallRounds: []int{}},
			DigestWatermarks: map[int]int{},
		},
	}
}

// floatBits lists a checkpoint's floats as bits, where == would take -0 for 0.
func floatBits(cp Checkpoint) []uint64 {
	var out []uint64
	for _, row := range append(append(slices.Clone(cp.State.P), cp.State.X), cp.FDS.LastShortfall) {
		for _, v := range row {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// Checkpoint and round records must round-trip exactly — floats by their
// bits — since recovery correctness depends on it; so must the checkpoints
// json.Marshal wrote before payloads were binary.
func TestTypedRecordRoundTrip(t *testing.T) {
	for name, cp := range checkpointCases() {
		b, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("%s: EncodeCheckpoint: %v", name, err)
		}
		got, err := DecodeCheckpoint(b)
		if err != nil {
			t.Fatalf("%s: DecodeCheckpoint: %v", name, err)
		}
		if !reflect.DeepEqual(got, cp) || !slices.Equal(floatBits(got), floatBits(cp)) {
			t.Errorf("%s: checkpoint round-trip mismatch:\n got %+v\nwant %+v", name, got, cp)
		}
		if name == "empty" {
			continue // encoding/json leaves an empty watermark map out
		}
		old, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeCheckpoint(old); err != nil || !reflect.DeepEqual(got, cp) || !slices.Equal(floatBits(got), floatBits(cp)) {
			t.Errorf("%s: json.Marshal checkpoint decoded to %+v, %v; want %+v", name, got, err, cp)
		}
	}
	for _, bad := range []string{`{"round":1}`, "", "\x02", "\x01\x02"} {
		if _, err := DecodeCheckpoint([]byte(bad)); err == nil {
			t.Errorf("DecodeCheckpoint(%q) accepted a checkpoint without state", bad)
		}
	}
	invalid := checkpointCases()["cloud"]
	invalid.State = &game.State{P: [][]float64{{0.5, 0.6}}, X: []float64{0.5}}
	offSimplex, _ := EncodeCheckpoint(invalid)
	if _, err := DecodeCheckpoint(offSimplex); err == nil {
		t.Errorf("DecodeCheckpoint accepted a binary state off the simplex")
	}

	// A shard checkpoints its watermark as a round record with no censuses,
	// and reads the {"round":N} object it used to write the same way.
	for _, payload := range []string{`{"round":7}`, "\x01\x0e\x04\x00"} {
		if got, err := DecodeRound([]byte(payload)); err != nil || !reflect.DeepEqual(got, RoundRecord{Round: 7}) {
			t.Errorf("DecodeRound(%q) = %+v, %v; want round 7 alone", payload, got, err)
		}
	}

	rec := RoundRecord{Round: 7, Degraded: true, Censuses: map[int][]int{0: {1, 2, 3}, 1: {0, 0, 4}}}
	rb, err := EncodeRound(rec)
	if err != nil {
		t.Fatalf("EncodeRound: %v", err)
	}
	gotRec, err := DecodeRound(rb)
	if err != nil {
		t.Fatalf("DecodeRound: %v", err)
	}
	if !reflect.DeepEqual(gotRec, rec) {
		t.Fatalf("round record round-trip mismatch: got %+v want %+v", gotRec, rec)
	}
}
