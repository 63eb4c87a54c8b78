package cloud

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/transport"
)

// pinEngine is a kernel over members 0..m-1 with k decisions and no hooks
// the pins below reach.
func pinEngine(mu *sync.Mutex, m, k int) *Engine {
	return NewEngine(EngineConfig{Lock: mu, Name: "pin", Members: ids(m), K: k, Counters: &Counters{},
		Span: func(int) obs.Span { return obs.Span{} }})
}

// mapSet is the census set a barrier held before sets were indexed by
// region: a map over a slab of counts, as the allocation reference.
type mapSet struct {
	censuses   map[int][]int
	slab, free []int
}

var (
	mapSink *mapSet
	setSink *CensusSet
)

// TestCensusSetAllocs pins the census set's per-round heap cost at M=16 and
// M=1024: a round's batch placed on a recycled set, listed, folded and
// encoded into the journal allocates nothing, and a fresh set filled with
// the batch allocates no more than the census map it replaced did.
func TestCensusSetAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	j, _, err := durable.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, m := range []int{16, 1024} {
		fold, censuses := censusRing(t, m)
		k := fold.Decisions()
		batch := make([]transport.Census, 0, m)
		for region := 0; region < m; region++ {
			batch = append(batch, transport.Census{Edge: region, Counts: censuses[region]})
		}
		var mu sync.Mutex
		eng := pinEngine(&mu, m, k)
		round := 0
		place := func(set *CensusSet) {
			for i := range batch {
				set.put(batch[i].Edge, batch[i].Counts, m*k)
			}
		}
		eng.Recycle(eng.takeSet())
		if allocs := testing.AllocsPerRun(20, func() {
			round++
			set := eng.takeSet()
			place(set)
			rec := durable.RoundRecord{Round: round, Sorted: set.Sorted(round)}
			if err := fold.ApplySet(set); err != nil {
				t.Fatal(err)
			}
			if _, err := j.AppendRound(rec); err != nil {
				t.Fatal(err)
			}
			eng.Recycle(set)
		}); allocs != 0 {
			t.Errorf("M=%d: a round on a recycled set: %.0f allocs, want 0", m, allocs)
		}

		fresh := testing.AllocsPerRun(20, func() {
			eng.spare = eng.spare[:0]
			setSink = eng.takeSet()
			place(setSink)
		})
		mapped := testing.AllocsPerRun(20, func() {
			s := &mapSet{censuses: make(map[int][]int, m)}
			for i := range batch {
				if len(s.free) < k {
					s.slab = make([]int, m*k)
					s.free = s.slab
				}
				slot := s.free[:k:k]
				s.free = s.free[k:]
				copy(slot, batch[i].Counts)
				s.censuses[batch[i].Edge] = slot
			}
			mapSink = s
		})
		t.Logf("M=%d: a fresh census set filled: %.0f allocs, the census map: %.0f", m, fresh, mapped)
		if fresh > mapped {
			t.Errorf("M=%d: a fresh census set filled: %.0f allocs, the census map it replaced %.0f", m, fresh, mapped)
		}
	}
}

// TestCensusSetListsAscending: a set filled in any order lists its censuses
// by ascending region, stamped with the round, over its own copies of the
// counts, and the record it makes encodes to the bytes of the same censuses
// as a map; a recycled set lists only what it was refilled with.
func TestCensusSetListsAscending(t *testing.T) {
	var mu sync.Mutex
	eng := pinEngine(&mu, 9, 2)
	set := eng.takeSet()
	byMap := map[int][]int{}
	for _, region := range []int{7, 2, 8, 0, 5} {
		counts := []int{region, 10 - region}
		set.put(region, counts, 18)
		byMap[region] = []int{region, 10 - region}
		counts[0] = -1 // the caller's buffer, reused
	}
	if dup := set.put(5, []int{5, 6}, 18); !dup {
		t.Error("a second census for region 5 was not reported a duplicate")
	}
	byMap[5] = []int{5, 6}
	want := []transport.Census{
		{Edge: 0, Round: 3, Counts: []int{0, 10}}, {Edge: 2, Round: 3, Counts: []int{2, 8}},
		{Edge: 5, Round: 3, Counts: []int{5, 6}}, {Edge: 7, Round: 3, Counts: []int{7, 3}},
		{Edge: 8, Round: 3, Counts: []int{8, 2}},
	}
	if got := set.Sorted(3); !reflect.DeepEqual(got, want) || set.n != 5 {
		t.Fatalf("Sorted(3) = %v (%d held), want %v", got, set.n, want)
	}
	listed, _ := durable.EncodeRound(durable.RoundRecord{Round: 3, Degraded: true, Sorted: set.Sorted(3)})
	mapped, _ := durable.EncodeRound(durable.RoundRecord{Round: 3, Degraded: true, Censuses: byMap})
	if !bytes.Equal(listed, mapped) {
		t.Errorf("the set's record encodes to %x, the same censuses as a map to %x", listed, mapped)
	}
	eng.Recycle(set)
	again := eng.takeSet()
	if again != set || again.n != 0 || len(again.Sorted(4)) != 0 || again.Sorted(4) == nil {
		t.Fatalf("a recycled set holds %d censuses, lists %v", again.n, again.Sorted(4))
	}
	again.put(1, []int{1, 1}, 18)
	if got := again.Sorted(4); len(got) != 1 || got[0].Edge != 1 {
		t.Errorf("refilled set lists %v, want region 1 alone", got)
	}
}

// TestLiveLeasesAscend: LiveLeases lists the members holding a live lease in
// ascending id order, whatever order they renewed in, without one whose
// lease lapsed.
func TestLiveLeasesAscend(t *testing.T) {
	r := newRig(6, 2)
	defer func() {
		r.mu.Lock()
		r.eng.Stop()
		r.mu.Unlock()
	}()
	for _, id := range []int{5, 1, 3, 0} {
		if err := r.eng.Renew(id, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.eng.Renew(4, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.tick.LeaseEvictions.Value() == 1 })
	if live := r.eng.LiveLeases(); !reflect.DeepEqual(live, []int{0, 1, 3, 5}) {
		t.Errorf("LiveLeases = %v, want [0 1 3 5]", live)
	}
}

// TestOpenRefusesForeignCensus: a journaled record whose census is no
// member's — a region id past the fold (1<<40), a negative one, or counts
// not of K decisions — is refused at recovery, before it is folded: Open
// fails naming the round, and the state is the one the server started
// from. The region id indexes nothing on the way.
func TestOpenRefusesForeignCensus(t *testing.T) {
	c0, c1 := testCounts(0, 7, 10)
	for name, bad := range map[string]map[int][]int{
		"region 1<<40":    {0: c0, 1 << 40: c1},
		"negative region": {-1: c0, 1: c1},
		"short counts":    {0: c0, 1: c1[:3]},
	} {
		dir := t.TempDir()
		j, _, err := durable.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.AppendRound(durable.RoundRecord{Round: 0, Censuses: bad}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		srv := newLagServer(t, 4)
		before := srv.StateHash()
		err = srv.Open(dir)
		if err == nil || !strings.Contains(err.Error(), "round 0") {
			t.Errorf("%s: Open = %v, want the record refused", name, err)
		}
		if got := srv.StateHash(); got != before || srv.Latest() != -1 {
			t.Errorf("%s: the refused record moved the state (hash %08x -> %08x, latest %d)", name, before, got, srv.Latest())
		}
		srv.Close()
	}
}
