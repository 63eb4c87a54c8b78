package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/israce"
)

// goldenTracer records the spans of TestSpanJSONGolden: one that fits a
// span's inline storage, one whose attrs and event attrs spill from it, and
// one with more events than it holds.
func goldenTracer() *Tracer {
	tr := NewTracer(4)
	fits := tr.Start("fits", A("edge", 3), A("round", 117), A("x", 0.75))
	for i := 0; i < 4; i++ {
		fits.Event("census", A("edge", i))
	}
	fits.End(A("census_total", 40))

	spills := tr.Start("spills", A("a0", 0), A("a1", "one"), A("a2", true))
	spills.Attr("a3", 3.5)
	spills.Attr("a4", nil)
	for i := 0; i < 6; i++ {
		spills.Event(fmt.Sprintf("e%d", i), A("i", i), A("half", float64(i)/2))
	}
	spills.End(A("a5", -5), A("a6", "six"))

	many := tr.Start("many")
	for i := 0; i < 9; i++ {
		if i%3 == 0 {
			many.Event("bare")
		} else {
			many.Event("one", A("i", i))
		}
	}
	many.End()
	return tr
}

// maskClock replaces the clock's readings in WriteJSON's output.
func maskClock(b string) string {
	b = regexp.MustCompile(`"start": "[^"]*"`).ReplaceAllString(b, `"start": "T"`)
	return regexp.MustCompile(`"(duration_ns|offset_ns)": \d+`).ReplaceAllString(b, `"$1": 0`)
}

// TestSpanJSONGolden: /debug/spans writes the bytes it wrote before spans
// kept their attrs and events inline (testdata/spans.golden.json, with the
// clock's readings masked), for a span that fits that storage and for spans
// that outgrow it.
func TestSpanJSONGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/spans.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := goldenTracer().WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	if got := maskClock(b.String()); got != string(want) {
		t.Errorf("WriteJSON changed:\n%s", got)
	}
}

// TestSpanEndsOnce runs Event and Attr against End: the committed span is
// what the span held when End ran, and nothing reaches it afterwards —
// neither a new annotation nor a write into the storage it points at.
func TestSpanEndsOnce(t *testing.T) {
	tr := NewTracer(2)
	sp := tr.Start("raced", A("edge", 1))
	var wg sync.WaitGroup
	started := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				sp.Event("e", A("g", g), A("i", i))
				sp.Attr("i", i)
				if i == 2 {
					started <- struct{}{}
				}
			}
		}()
	}
	<-started
	sp.End(A("end", true))
	ended, err := json.Marshal(tr.Recent(0))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	sp.Event("late")
	sp.Attr("late", true)
	sp.End(A("again", true))
	after, err := json.Marshal(tr.Recent(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(ended) {
		t.Errorf("span changed after End:\n got %s\nwant %s", after, ended)
	}
	d := tr.Recent(0)
	if len(d) != 1 || d[0].Attrs[len(d[0].Attrs)-1].Key != "end" {
		t.Errorf("committed %d spans, last attr %+v; want 1 ending in end", len(d), d[0].Attrs)
	}
}

// TestSpanAllocs pins a span — three start attrs, one of them a round past
// 255, four one-attr events, an end attr — at zero allocations once its slot
// has grown to it: attrs hold their values unboxed, the callers' variadic
// slices stay on their stacks, and the slot's storage is reused.
func TestSpanAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	tr := NewTracer(8)
	round := 1000
	allocs := testing.AllocsPerRun(200, func() {
		round++
		sp := tr.Start("edge_round", A("edge", 1), A("round", round), A("x", 0.5+float64(round)))
		for i := 0; i < 4; i++ {
			sp.Event("census", A("edge", i))
		}
		sp.End(A("census_total", 40))
	})
	if allocs != 0 {
		t.Errorf("a span of 4 attrs and 4 events: %.1f allocs, want 0", allocs)
	}
}

// TestSpanOwnsItsRecord: a span handle writes only to its own span's record.
// Ended twice or annotated after End from several goroutines, or outlived by
// a tracer's capacity of newer spans — the last of which holds its slot,
// still open, when it writes — it changes no other span's record, and an
// outlived span never shows in Recent.
func TestSpanOwnsItsRecord(t *testing.T) {
	const capacity = 256
	tr := NewTracer(capacity)
	old := tr.Start("old", A("round", 1))
	ended := tr.Start("ended", A("round", 2))
	ended.End(A("total", 3))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < (capacity-2)/2; i++ {
				sp := tr.Start("newer", A("g", g), A("i", i))
				sp.Event("e", A("i", i))
				sp.End()
				sp.End(A("again", true))
				ended.Event("late", A("i", i))
				ended.Attr("late", i)
				ended.End(A("again", true))
			}
		}()
	}
	wg.Wait()
	taker := tr.Start("taker", A("round", 4)) // the span capacity after old: its slot
	old.Event("late", A("i", 1))
	old.Attr("late", true)
	old.End(A("again", true))
	taker.End()
	recent := tr.Recent(0)
	if len(recent) != capacity {
		t.Fatalf("retained %d spans, want %d", len(recent), capacity)
	}
	for i, d := range recent {
		var ok bool
		switch i {
		case 0:
			ok = d.Name == "taker" && len(d.Attrs) == 1 && len(d.Events) == 0
		case capacity - 1:
			ok = d.Name == "ended" && len(d.Attrs) == 2 && len(d.Events) == 0
		default:
			ok = d.Name == "newer" && len(d.Attrs) == 2 && len(d.Events) == 1 && len(d.Events[0].Attrs) == 1
		}
		if !ok {
			t.Errorf("recent[%d] = %+v: written by another span's handle", i, d)
		}
	}
}
