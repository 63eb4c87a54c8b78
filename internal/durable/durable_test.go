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

	"repro/internal/crashtest"
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

// An older build's checkpoint.snap is read when no segment opens with a
// snapshot frame, and a corrupt one is an error, never silently ignored; a
// snapshot frame beats it, and the checkpoint after next unlinks it.
func TestLoadSnapshotReadsLegacyFile(t *testing.T) {
	dir := t.TempDir()
	crashtest.WriteLegacySnapshot(t, dir, []byte("v1"))
	j, snap, err := OpenJournal(dir)
	if err != nil || string(snap) != "v1" {
		t.Fatalf("OpenJournal over a legacy checkpoint = %q, %v; want v1", snap, err)
	}
	for _, p := range []string{"v2", "v3"} {
		if err := j.Checkpoint(payloadOf(p), nil); err != nil {
			t.Fatal(err)
		}
		if err := j.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := j.LoadSnapshot(); err != nil || !ok || string(got) != p {
			t.Fatalf("LoadSnapshot = %q ok=%v err=%v, want %s", got, ok, err, p)
		}
	}
	j.Close()
	if _, err := os.Stat(filepath.Join(dir, legacySnapshot)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.snap outlived two snapshot frames (err=%v)", err)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacySnapshot), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir); err == nil {
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

func payloadOf(p string) []byte { return []byte(p) }

// A checkpoint is a snapshot frame at the head of the segment the journal
// rotates into, and costs the disk one create and one directory fsync, on
// the background goroutine: no rename, no file of its own, and no fsync of
// its own unless no append follows it (Close). A segment goes one checkpoint
// late: the first checkpoint keeps journal.wal, under which its own snapshot
// might yet be torn; the second unlinks it. (Invariant 2.)
func TestCheckpointIsASnapshotFrame(t *testing.T) {
	j, rec := openRecorded(t)
	for n := 0; n < 3; n++ {
		if _, err := j.AppendRound(round(n)); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func(p string, want ...string) {
		t.Helper()
		rec.Reset()
		if err := j.Checkpoint(payloadOf(p), nil); err != nil {
			t.Fatal(err)
		}
		mine := rec.Ops()[crashtest.Goroutine()]
		if err := j.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if len(mine) != 0 {
			t.Errorf("Checkpoint did %q on the caller's goroutine, want nothing", mine)
		}
		if got := rec.Ops()[""]; !reflect.DeepEqual(got, want) {
			t.Errorf("checkpoint %s did %q, want %q", p, got, want)
		}
		if snap, ok, err := j.LoadSnapshot(); err != nil || !ok || string(snap) != p {
			t.Errorf("LoadSnapshot = %q ok=%v err=%v, want %s", snap, ok, err, p)
		}
	}
	checkpoint("one", "create journal.00000002.wal", "syncdir .")
	if got := replayedRounds(t, j); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("replayed %v after the first checkpoint, want the rounds it covers still on disk", got)
	}
	rec.Reset()
	if _, err := j.AppendRound(round(3)); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Ops()[""], []string{"sync journal.00000001.wal"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the append behind a snapshot frame did %q, want %q: one fsync for both", got, want)
	}
	checkpoint("two", "remove journal.wal", "create journal.00000003.wal", "syncdir .")
	if got := segmentFiles(t, j.Dir()); !reflect.DeepEqual(got, []string{"journal.00000001.wal", "journal.00000002.wal", "journal.00000003.wal"}) {
		t.Fatalf("segments after the second checkpoint = %q", got)
	}
	if got := replayedRounds(t, j); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("replayed %v after the second checkpoint, want [3]", got)
	}
	rec.Reset()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Ops()[""], []string{"sync journal.00000002.wal"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Close over a snapshot frame no append followed did %q, want %q", got, want)
	}
	b, err := os.ReadFile(filepath.Join(j.Dir(), "journal.00000002.wal"))
	if err != nil || len(b) != frameHeader+1+len("two") || b[frameHeader] != tagSnapshot {
		t.Fatalf("journal.00000002.wal = %x (%v), want one snapshot frame of two", b, err)
	}
}

// A reopened store counts nothing it found as fsynced: a kill -9 keeps a
// snapshot frame no fsync covered, and the checkpoint that closes its
// segment after the restart fsyncs it first, so that a later power loss
// cannot tear a closed segment's head.
func TestReopenedHeadIsSyncedBeforeItCloses(t *testing.T) {
	j, _ := openRecorded(t)
	if _, err := j.AppendRound(round(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(payloadOf("one"), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	killed := crashtest.CopyDir(t, j.Dir())
	rec := crashtest.New(t, killed)
	s, err := OpenHooked(killed, rec.Hook)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Replay(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	if err := s.checkpoint(payloadOf("two"), math.MaxInt, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := rec.Ops()[""]; len(got) == 0 || got[0] != "sync journal.00000001.wal" {
		t.Errorf("the first checkpoint after a reopen did %q, want the fsync of the head it closes first", got)
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
	// segment holds it and keeps both; one retaining nothing lets them go
	// at the checkpoint after it.
	for _, p := range []string{"s2", "s3", "s4"} {
		var retained []RoundRecord
		if p == "s2" {
			retained = []RoundRecord{round(4)}
		}
		if err := j2.Checkpoint(payloadOf(p), retained); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if err := j2.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if p != "s4" {
			check(j2, 0, 1, 2, 3, 4)
		}
	}
	check(j2)
	if got := segmentFiles(t, dir); len(got) != 3 {
		t.Fatalf("segments after two covering checkpoints = %q, want the previous snapshot's, the active one and the spare", got)
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
	if err := s.checkpoint(payloadOf("x"), 0, 0, nil); err != ErrStoreClosed {
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
		b, err := AppendCheckpoint(nil, cp)
		if err != nil {
			t.Fatalf("%s: AppendCheckpoint: %v", name, err)
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
	offSimplex, _ := AppendCheckpoint(nil, invalid)
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
