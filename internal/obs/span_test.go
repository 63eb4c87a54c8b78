package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		sp := tr.Start("round", A("round", i))
		sp.End()
	}
	recent := tr.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("retained %d spans, want 3 (capacity)", len(recent))
	}
	// Most recent first: rounds 4, 3, 2.
	for i, want := range []int{4, 3, 2} {
		if got := recent[i].Attrs[0].Value().(int); got != want {
			t.Errorf("recent[%d] round = %v, want %d", i, got, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != recent[0].ID {
		t.Errorf("Recent(2) = %d spans starting at id %d, want 2 starting at %d",
			len(got), got[0].ID, recent[0].ID)
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start("edge_round", A("edge", 1))
	sp.Attr("round", 7)
	sp.Event("uploads_complete", A("uploads", 20))
	if len(tr.Recent(0)) != 0 {
		t.Error("span visible before End")
	}
	sp.End(A("census_total", 40))
	sp.End() // second End must not double-commit
	sp.Attr("late", true)

	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("retained %d spans, want 1", len(recent))
	}
	d := recent[0]
	if d.Name != "edge_round" || len(d.Attrs) != 3 || len(d.Events) != 1 {
		t.Errorf("span = %+v, want name edge_round, 3 attrs, 1 event", d)
	}
	if d.DurationNS < 0 {
		t.Errorf("duration = %d, want >= 0", d.DurationNS)
	}
	if d.Events[0].Name != "uploads_complete" {
		t.Errorf("event = %+v", d.Events[0])
	}
}

func TestWriteJSON(t *testing.T) {
	tr := NewTracer(4)
	tr.Start("a").End()
	tr.Start("b").End()
	var b strings.Builder
	if err := tr.WriteJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	var spans []SpanData
	if err := json.Unmarshal([]byte(b.String()), &spans); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(spans) != 2 || spans[0].Name != "b" || spans[1].Name != "a" {
		t.Errorf("spans = %+v, want [b a]", spans)
	}
}
