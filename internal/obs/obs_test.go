package obs

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/israce"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("consensus_rounds_total", "rounds completed")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("consensus_rounds_total", ""); again != c {
		t.Error("Counter did not get-or-create the same instrument")
	}

	g := r.Gauge("edge_vehicles", "registered vehicles")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Errorf("gauge = %v, want 7.5", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("worldbuild_stage_executions_total", "stage runs", "stage")
	v.With("network").Add(2)
	v.With("trace").Inc()
	v.With("network").Inc()
	if got := v.With("network").Value(); got != 3 {
		t.Errorf(`With("network") = %d, want 3`, got)
	}
	if got := v.With("trace").Value(); got != 1 {
		t.Errorf(`With("trace") = %d, want 1`, got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_round_duration_seconds", "round walltime", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Errorf("sum = %v, want 56.05", h.Sum())
	}
	points := r.Snapshot()
	if len(points) != 1 {
		t.Fatalf("snapshot has %d points, want 1", len(points))
	}
	cum := []int64{1, 3, 4, 5}
	for i, b := range points[0].Buckets {
		if b.CumulativeCount != cum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.CumulativeCount, cum[i])
		}
	}
}

func TestReregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestWriteProm pins the exposition format: HELP/TYPE headers, label
// rendering, histogram expansion, deterministic name ordering.
func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(7)
	r.CounterVec("worldbuild_stage_hits_total", "cache hits", "stage").With("net\"wo\\rk").Add(2)
	h := r.Histogram("dur_seconds", "", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE dur_seconds histogram
dur_seconds_bucket{le="0.5"} 1
dur_seconds_bucket{le="+Inf"} 2
dur_seconds_sum 2.25
dur_seconds_count 2
# HELP worldbuild_stage_hits_total cache hits
# TYPE worldbuild_stage_hits_total counter
worldbuild_stage_hits_total{stage="net\"wo\\rk"} 2
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNilSafety: every operation through a nil observer, registry, or
// instrument must be a silent no-op — this is the disabled mode components
// rely on.
func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Counter("a", "").Inc()
	o.Counter("a", "").Add(3)
	o.Gauge("b", "").Set(1)
	o.Histogram("c", "", nil).Observe(2)
	o.CounterVec("d", "", "l").With("x").Inc()
	sp := o.Span("op")
	sp.Attr("k", 1)
	sp.Event("e")
	sp.End()
	if o.Registry().Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	if got := o.Counter("a", "").Value(); got != 0 {
		t.Errorf("nil counter Value = %d", got)
	}
	var b strings.Builder
	if err := o.Registry().WriteProm(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil WriteProm wrote %q, err %v", b.String(), err)
	}
	if o.Tracer().Recent(5) != nil {
		t.Error("nil tracer Recent should be nil")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", nil).Observe(0.001)
				r.CounterVec("v_total", "", "l").With("x").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g", "").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	if got := r.CounterVec("v_total", "", "l").With("x").Value(); got != 8000 {
		t.Errorf("vec counter = %d, want 8000", got)
	}
}

// TestGaugeSetFunc: a collect-time gauge answers Value, Snapshot and the text
// exposition from its function — plain and as a Vec child — and the function
// may take a lock its owner holds while it registers instruments (the
// components' Instrument does exactly that): the registry calls it with none
// of its own locks held, so the two orders never cross.
func TestGaugeSetFunc(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex // the owner's lock
	v := 1.0
	read := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return v
	}
	g := r.Gauge("owner_value", "a derived quantity")
	g.Set(7) // shadowed once a function is installed
	g.SetFunc(read)
	child := r.GaugeVec("owner_value_by_edge", "the same, labeled", "edge").With("3")
	child.SetFunc(read)
	(*Gauge)(nil).SetFunc(read) // nil-safe

	mu.Lock()
	v = 42
	mu.Unlock()
	if got := g.Value(); got != 42 {
		t.Errorf("Value = %v, want the function's 42", got)
	}
	found := 0
	for _, p := range r.Snapshot() {
		if strings.HasPrefix(p.Name, "owner_value") {
			found++
			if p.Value != 42 {
				t.Errorf("snapshot %s = %v, want 42", p.Name, p.Value)
			}
		}
	}
	if found != 2 {
		t.Errorf("snapshot has %d owner_value series, want 2", found)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"owner_value 42\n", `owner_value_by_edge{edge="3"} 42` + "\n"} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the owner: its lock, then the registry's
		defer wg.Done()
		for i := 0; i < 500; i++ {
			mu.Lock()
			r.Gauge("owner_value", "").SetFunc(read)
			r.Counter("owner_rounds_total", "").Inc()
			v++
			mu.Unlock()
		}
	}()
	go func() { // the scraper: the registry's, released, then the owner's
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	if got := g.Value(); got != 542 {
		t.Errorf("Value = %v after 500 updates, want 542", got)
	}
}

// TestGaugeReadAllocs pins a gauge read at nothing, stored or collect-time:
// the benchmark reads consensus_state_hash after every round.
func TestGaugeReadAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	r := NewRegistry()
	stored, derived := r.Gauge("stored", ""), r.Gauge("derived", "")
	stored.Set(3)
	derived.SetFunc(func() float64 { return 4 })
	if allocs := testing.AllocsPerRun(200, func() {
		if stored.Value()+derived.Value() != 7 {
			t.Fatal("gauges misread")
		}
	}); allocs != 0 {
		t.Errorf("reading a stored and a collect-time gauge: %.1f allocs, want 0", allocs)
	}
}
