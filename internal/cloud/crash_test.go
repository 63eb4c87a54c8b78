package cloud

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/durable"
	"repro/internal/game"
	"repro/internal/transport"
)

// crashServer is a 2-region server with the given lag window, checkpointing
// every four rounds.
func crashServer(t *testing.T, lag int) *Server {
	t.Helper()
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetFixedLag(lag)
	srv.compactEvery = 4
	return srv
}

// openRecorded opens a fresh state directory on srv through a journal whose
// store announces its disk work to the returned recorder.
func openRecorded(t *testing.T, srv *Server) *crashtest.Recorder {
	t.Helper()
	dir := t.TempDir()
	rec := crashtest.New(t, dir)
	srv.journal = durable.NewJournal(rec.Hook)
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	return rec
}

// crashRound drives one round of the crash-matrix script. With a lag window
// every fifth round completes degraded and is then corrected by its late
// census — a rewind, journaled as a Corrected record; without one every
// round is full. Either way the fold ends where a lossless run's does.
func crashRound(t *testing.T, srv *Server, round int) {
	t.Helper()
	c0, c1 := testCounts(round%8, 7-round%8, 10)
	srv.mu.Lock()
	lag := srv.lag
	srv.mu.Unlock()
	if lag == 0 || round%5 != 0 {
		runFullRound(t, srv, round, c0, c1)
		return
	}
	srv.SetRoundDeadline(20 * time.Millisecond)
	if _, err := srv.Submit(transport.Census{Edge: 0, Round: round, Counts: c0}); err != nil {
		t.Fatal(err)
	}
	srv.SetRoundDeadline(0)
	if _, err := srv.Submit(transport.Census{Edge: 1, Round: round, Counts: c1}); err != nil {
		t.Fatal(err)
	}
}

// lastRecord returns the newest round record journaled in a copy of a state
// directory.
func lastRecord(t *testing.T, dir string) durable.RoundRecord {
	t.Helper()
	journal, _, err := durable.OpenJournal(crashtest.CopyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	var last durable.RoundRecord
	if err := journal.Replay(func(rec durable.RoundRecord) error { last = rec; return nil }); err != nil {
		t.Fatal(err)
	}
	return last
}

// windowEntry is what a lag-window entry means, whatever storage holds it:
// its round, the bits of its snapshot (bitsOf: state and controller memory),
// its censuses and whether it completed degraded.
type windowEntry struct {
	Round    int
	Snapshot string
	Censuses map[int][]int
	Degraded bool
}

// windowOf returns what the server's lag window means, entry by entry.
func windowOf(srv *Server) []windowEntry {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]windowEntry, len(srv.window))
	for i, e := range srv.window {
		out[i] = windowEntry{e.round, bitsOf(e.preState, e.preFDS), make(map[int][]int), e.degraded}
		for edge, counts := range e.set.asMap() {
			out[i].Censuses[edge] = slices.Clone(counts)
		}
	}
	return out
}

// TestCheckpointCrashPoints is the crash-point matrix of the segmented
// journal for the cloud coordinator, with and without a lag window: the
// state directory is copied as it stands before the fsync of the cadence
// round's write-ahead record — durable or not, nobody was answered, and
// recovery folds it like its acknowledged twin — and before each step of the
// background checkpoint — rotated but no snapshot, snapshot tmp written, snapshot
// renamed with the old segments still present, old segments unlinked and no
// spare, empty spare present — and then given a torn tail, rewritten in the
// parent's one-file layout, taken right behind a rewind's delta Corrected
// record, and taken after a checkpoint whose background half failed. Open on every one of them must recover the uninterrupted
// twin: its round, its consensus_state_hash, its whole rewind window, and a
// future that folds like a lossless run's.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, lag := range []int{0, 2} {
		t.Run(fmt.Sprintf("lag=%d", lag), func(t *testing.T) {
			// The lossless reference: the hash after every round.
			ref := crashServer(t, 0)
			var hashes []uint32
			for round := 0; round < 12; round++ {
				c0, c1 := testCounts(round%8, 7-round%8, 10)
				runFullRound(t, ref, round, c0, c1)
				hashes = append(hashes, ref.StateHash())
			}

			verify := func(step, dir string, twin *Server) {
				t.Helper()
				srv := crashServer(t, lag)
				if err := srv.Open(dir); err != nil {
					t.Errorf("%s: Open: %v", step, err)
					return
				}
				latest := twin.Latest()
				if got := srv.Latest(); got != latest {
					t.Errorf("%s: recovered latest = %d, want %d", step, got, latest)
					return
				}
				if got := srv.StateHash(); got != hashes[latest] || got != twin.StateHash() {
					t.Errorf("%s: recovered hash %08x, twin %08x, lossless %08x", step, got, twin.StateHash(), hashes[latest])
				}
				if got, want := windowOf(srv), windowOf(twin); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: recovered rewind window differs from the twin's:\n got %+v\nwant %+v", step, got, want)
				}
				// The future, a rewind included (round 10 under a lag window),
				// folds like the lossless run's.
				for round := latest + 1; round < len(hashes); round++ {
					crashRound(t, srv, round)
				}
				if got := srv.StateHash(); got != hashes[len(hashes)-1] {
					t.Errorf("%s: hash after the recovered server ran on = %08x, lossless %08x", step, got, hashes[len(hashes)-1])
				}
			}

			// Two checkpoints (rounds 3 and 7); the second one's background
			// half is the one copied step by step: it has a snapshot to
			// replace and a covered segment to unlink.
			srv := crashServer(t, lag)
			rec := openRecorded(t, srv)
			for round := 0; round < 7; round++ {
				crashRound(t, srv, round)
			}
			if err := srv.journal.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
			rec.Reset()
			rec.Arm()
			crashRound(t, srv, 7)
			if err := srv.journal.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
			crashes := rec.Crashes()
			rec.Committer(t)
			var steps []string
			for _, c := range crashes {
				steps = append(steps, c.Step)
			}
			// Without a window the first checkpoint unlinked journal.wal; with
			// one it kept it for rounds 2-3, and the second lets it go.
			covered, segments := "journal.00000001.wal", 2
			if lag > 0 {
				covered, segments = "journal.wal", 3
			}
			want := []string{
				"before sync journal.00000001.wal",  // round 7's record written ahead: no reply, and the fold may not have run
				"before create checkpoint.snap.tmp", // rotated, no snapshot
				"before sync checkpoint.snap.tmp",   // snapshot tmp written
				"before rename checkpoint.snap",
				"before syncdir .",                   // snapshot renamed, old segments still present
				"before remove " + covered,           // the same, its directory entry durable
				"before create journal.00000003.wal", // old segments unlinked, no spare
				"before syncdir .",                   // empty spare present
				"after the last step",
			}
			if !reflect.DeepEqual(steps, want) {
				t.Fatalf("background checkpoint steps = %q, want %q", steps, want)
			}
			final := crashes[len(crashes)-1].Dir
			if names, _ := filepath.Glob(filepath.Join(final, "journal*.wal")); len(names) != segments {
				t.Errorf("segment files after the second checkpoint = %q, want %d (closed ones a retained round is in, the active one, the spare)", names, segments)
			}
			torn := crashtest.CopyDir(t, final)
			crashtest.TearTail(t, torn)
			crashes = append(crashes,
				crashtest.Crash{Step: "torn tail in the newest segment", Dir: torn},
				crashtest.Crash{Step: "parent layout", Dir: crashtest.ParentLayout(t, final)})
			for _, c := range crashes {
				verify(c.Step, c.Dir, srv)
			}

			// Killed right behind a rewind's record (round 5's late census,
			// journaled alone): recovery merges it into the degraded round
			// the journal holds just before it. Without a window round 5 is
			// an ordinary round and this is one more plain kill.
			behind := crashServer(t, lag)
			if err := behind.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			for round := 0; round <= 5; round++ {
				crashRound(t, behind, round)
			}
			if err := behind.journal.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
			killed := crashtest.CopyDir(t, behind.journal.Dir())
			if last := lastRecord(t, killed); lag > 0 && (!last.Corrected || last.Round != 5 || len(last.Censuses) != 1) {
				t.Errorf("the journal ends in %+v, want round 5's late census alone, marked corrected", last)
			}
			verify("killed behind a delta Corrected record", killed, behind)

			// A checkpoint whose background half fails at its first step: the
			// journal has rotated, no snapshot was written, no spare exists,
			// and two more rounds land in the new segment.
			failed := crashServer(t, lag)
			rec = openRecorded(t, failed)
			for round := 0; round < 7; round++ {
				crashRound(t, failed, round)
			}
			if err := failed.journal.WaitCheckpoint(); err != nil { // round 3's, which must not fail too
				t.Fatal(err)
			}
			rec.Fail("create checkpoint.snap.tmp")
			crashRound(t, failed, 7)
			if err := failed.journal.WaitCheckpoint(); err == nil {
				t.Fatal("WaitCheckpoint returned nil for a background checkpoint that failed")
			}
			if n := metricValue(t, failed.Registry(), "durable_journal_errors_total"); n != 1 {
				t.Errorf("durable_journal_errors_total = %v after a failed background checkpoint, want 1", n)
			}
			rec.Fail("")
			crashRound(t, failed, 8)
			crashRound(t, failed, 9)
			verify("background failed, two rounds later", crashtest.CopyDir(t, failed.journal.Dir()), failed)
		})
	}
}

// TestCheckpointBoundsSegments: at fixed_lag 8 and the default cadence, 200
// rounds leave at most two closed segments, the active one and the spare.
func TestCheckpointBoundsSegments(t *testing.T) {
	srv := crashServer(t, 8)
	srv.compactEvery = durable.CompactEvery
	dir := t.TempDir()
	if err := srv.Open(dir); err != nil {
		t.Fatal(err)
	}
	c0, c1 := testCounts(0, 7, 10)
	for round := 0; round < 200; round++ {
		runFullRound(t, srv, round, c0, c1)
		if names, _ := filepath.Glob(filepath.Join(dir, "journal*.wal")); len(names) > 4 {
			t.Fatalf("round %d: %d segment files %q, want at most two closed, the active one and the spare", round, len(names), names)
		}
	}
	if err := srv.journal.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, srv.Registry(), "durable_journal_segments"); n < 1 || n > 3 {
		t.Errorf("durable_journal_segments = %v, want 1 to 3", n)
	}
}
