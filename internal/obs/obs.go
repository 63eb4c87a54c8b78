// Package obs is the unified observability layer: one dependency-free
// instrumentation API shared by every tier of the system (cloud, edge,
// vehicle, transport, world build, controllers).
//
// It has two halves:
//
//   - a metrics Registry of named Counters, Gauges, and Histograms (plus
//     labeled Vec variants) with atomic hot paths, snapshots, and
//     Prometheus-style text exposition (expo.go);
//   - a span Tracer recording timed, attributed spans and events into a
//     fixed-size ring buffer, exported as JSON (span.go).
//
// Both are bundled by Observer, the handle components accept. Every type is
// nil-safe: instruments obtained from a nil Observer or Registry are nil and
// all their methods are no-ops, so a component instrumented against a nil
// observer pays only a nil check per operation (see bench_test.go; the
// disabled hot path is well under 10 ns/op). Components therefore hold their
// instruments unconditionally and never branch on "is observability on".
//
// # Metric naming convention
//
// Names are snake_case, prefixed by subsystem, suffixed by unit/kind:
//
//   - consensus_*        cloud coordinator (rounds, barriers, censuses)
//   - transport_fault_*  fault-injection layer
//   - edge_*             edge servers and their cloud links
//   - vehicle_*          vehicle clients
//   - worldbuild_*       world-build pipeline stages
//   - fds_*              the FDS controller
//   - replicator_*       replicator dynamics
//
// Counters end in _total; durations are histograms in seconds ending in
// _seconds. Label names are snake_case; high-cardinality labels (vehicle
// ids, round numbers) are forbidden — put those on spans instead.
//
// HTTP exposition (/metrics, /debug/spans, pprof) lives in http.go; cmd/cpnode
// and cmd/scenario serve it behind a -metrics flag.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Observer bundles the registry and tracer a component reports through. A
// nil *Observer is a fully disabled observer: every instrument it hands out
// is nil and every operation on those is a no-op.
type Observer struct {
	reg *Registry
	tr  *Tracer
}

// New returns an enabled Observer with a fresh registry and a tracer
// retaining the most recent 256 spans.
func New() *Observer {
	return &Observer{reg: NewRegistry(), tr: NewTracer(256)}
}

// Registry returns the observer's metric registry (nil when disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the observer's span tracer (nil when disabled).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Counter returns the named counter, creating it if needed.
func (o *Observer) Counter(name, help string) *Counter {
	return o.Registry().Counter(name, help)
}

// CounterVec returns the named labeled counter family.
func (o *Observer) CounterVec(name, help string, labels ...string) *CounterVec {
	return o.Registry().CounterVec(name, help, labels...)
}

// Gauge returns the named gauge, creating it if needed.
func (o *Observer) Gauge(name, help string) *Gauge {
	return o.Registry().Gauge(name, help)
}

// Histogram returns the named histogram, creating it if needed (nil buckets
// selects DefBuckets).
func (o *Observer) Histogram(name, help string, buckets []float64) *Histogram {
	return o.Registry().Histogram(name, help, buckets)
}

// Span starts a span on the observer's tracer (the zero span when tracing is disabled).
func (o *Observer) Span(name string, attrs ...Attr) Span {
	return o.Tracer().Start(name, attrs...)
}

// MetricType distinguishes instrument kinds in snapshots and exposition.
type MetricType string

// Metric types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry is a set of named instruments. Instrument lookups get-or-create
// under a lock; the instruments themselves update lock-free. All methods are
// safe for concurrent use, and all are no-ops on a nil *Registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable iteration
}

// family is one registered metric name: either a single unlabeled
// instrument, or a Vec of labeled children.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string // nil for unlabeled instruments

	single interface{} // *Counter / *Gauge / *Histogram when unlabeled
	vec    interface{} // *CounterVec / *GaugeVec when labeled
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family under name, creating it with mk on first use.
// Re-registering a name with a different type or label set panics: metric
// names are a global, documented interface and a collision is a bug.
func (r *Registry) lookup(name string, typ MetricType, labels []string, mk func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = mk()
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ || !equalStrings(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, typ, labels, f.typ, f.labels))
	}
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.lookup(name, TypeCounter, nil, func() *family {
		return &family{name: name, help: help, typ: TypeCounter, single: &Counter{}}
	})
	return f.single.(*Counter)
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.lookup(name, TypeGauge, nil, func() *family {
		return &family{name: name, help: help, typ: TypeGauge, single: &Gauge{}}
	})
	return f.single.(*Gauge)
}

// DefBuckets are the default histogram bucket upper bounds (seconds),
// spanning microseconds to tens of seconds.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// Histogram returns the named histogram, creating it if needed. A nil
// buckets slice selects DefBuckets. Buckets must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.lookup(name, TypeHistogram, nil, func() *family {
		return &family{name: name, help: help, typ: TypeHistogram, single: newHistogram(buckets)}
	})
	return f.single.(*Histogram)
}

// CounterVec returns the named labeled counter family, creating it if
// needed.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	f := r.lookup(name, TypeCounter, labels, func() *family {
		return &family{
			name: name, help: help, typ: TypeCounter, labels: labels,
			vec: &CounterVec{labels: labels, children: make(map[string]*Counter)},
		}
	})
	return f.vec.(*CounterVec)
}

// GaugeVec returns the named labeled gauge family, creating it if needed.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	f := r.lookup(name, TypeGauge, labels, func() *family {
		return &family{
			name: name, help: help, typ: TypeGauge, labels: labels,
			vec: &GaugeVec{labels: labels, children: make(map[string]*Gauge)},
		}
	})
	return f.vec.(*GaugeVec)
}

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down. The zero value is ready
// to use; a nil *Gauge discards all updates.
type Gauge struct {
	bits atomic.Uint64
	fn   atomic.Pointer[func() float64] // collect-time source, see SetFunc
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetFunc makes g a collect-time gauge: Value — and through it Snapshot and
// the text exposition — calls fn instead of loading a stored value, so a
// quantity that is costly to derive is derived when somebody looks. The
// registry holds none of its locks while it calls fn, so fn may take its
// owner's lock (and the read waits for it). fn must be safe for concurrent
// use and must not read the registry it is registered in.
func (g *Gauge) SetFunc(fn func() float64) {
	if g == nil {
		return
	}
	g.fn.Store(&fn)
}

// Add adds d to the gauge (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil): the collect-time source's when
// SetFunc installed one, the stored value otherwise.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets (cumulative counts
// are produced at snapshot time). A nil *Histogram discards observations.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket appended
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~15) and the scan is branch-
	// predictable, beating binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Counter
	order    []string
}

// With returns the child counter for the given label values (one per label
// name, in declaration order), creating it if needed. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := joinLabelValues(values)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: counter vec %v got %d label values", v.labels, len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; !ok {
		c = &Counter{}
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Gauge
	order    []string
}

// With returns the child gauge for the given label values, creating it if
// needed. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	key := joinLabelValues(values)
	v.mu.RLock()
	g, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: gauge vec %v got %d label values", v.labels, len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.children[key]; !ok {
		g = &Gauge{}
		v.children[key] = g
		v.order = append(v.order, key)
	}
	return g
}

// joinLabelValues builds the child map key. \xff cannot appear in sane label
// values; collisions would only merge children, never corrupt.
func joinLabelValues(values []string) string {
	return strings.Join(values, "\xff")
}

func splitLabelValues(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\xff")
}

// Label is one label name/value pair of a snapshot point.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Bucket is one cumulative histogram bucket of a snapshot point.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound (+Inf for the last).
	UpperBound float64 `json:"upper_bound"`
	// CumulativeCount counts observations ≤ UpperBound.
	CumulativeCount int64 `json:"cumulative_count"`
}

// Point is one sample of a registry snapshot: a single (name, labels)
// series with its current value.
type Point struct {
	Name   string     `json:"name"`
	Type   MetricType `json:"type"`
	Help   string     `json:"help,omitempty"`
	Labels []Label    `json:"labels,omitempty"`
	// Value is the counter or gauge value (counters as float for uniformity).
	Value float64 `json:"value"`
	// Count, Sum, and Buckets are set for histograms.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns a stable-ordered copy of every series in the registry:
// families in name order, vec children in creation order. Nil-safe (empty).
func (r *Registry) Snapshot() []Point {
	var out []Point
	for _, f := range r.snapshotFamilies() {
		out = append(out, f.points...)
	}
	return out
}

// famSnap is one family's metadata plus its current samples. A labeled
// family with no children yet has metadata but zero points.
type famSnap struct {
	name   string
	help   string
	typ    MetricType
	points []Point
}

// snapshotFamilies returns every registered family in name order, including
// labeled families that have no children yet (so exposition can still
// advertise the series). Nil-safe (empty).
func (r *Registry) snapshotFamilies() []famSnap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]famSnap, len(fams))
	for i, f := range fams {
		out[i] = famSnap{name: f.name, help: f.help, typ: f.typ, points: f.points()}
	}
	return out
}

// points renders one family's current samples.
func (f *family) points() []Point {
	base := Point{Name: f.name, Type: f.typ, Help: f.help}
	switch inst := f.single.(type) {
	case *Counter:
		p := base
		p.Value = float64(inst.Value())
		return []Point{p}
	case *Gauge:
		p := base
		p.Value = inst.Value()
		return []Point{p}
	case *Histogram:
		p := base
		p.Count = inst.Count()
		p.Sum = inst.Sum()
		cum := int64(0)
		for i := range inst.counts {
			cum += inst.counts[i].Load()
			ub := math.Inf(1)
			if i < len(inst.bounds) {
				ub = inst.bounds[i]
			}
			p.Buckets = append(p.Buckets, Bucket{UpperBound: ub, CumulativeCount: cum})
		}
		return []Point{p}
	}

	// Labeled family.
	var out []Point
	switch vec := f.vec.(type) {
	case *CounterVec:
		vec.mu.RLock()
		keys := append([]string(nil), vec.order...)
		vec.mu.RUnlock()
		for _, key := range keys {
			vec.mu.RLock()
			c := vec.children[key]
			vec.mu.RUnlock()
			p := base
			p.Labels = zipLabels(f.labels, splitLabelValues(key))
			p.Value = float64(c.Value())
			out = append(out, p)
		}
	case *GaugeVec:
		vec.mu.RLock()
		keys := append([]string(nil), vec.order...)
		vec.mu.RUnlock()
		for _, key := range keys {
			vec.mu.RLock()
			g := vec.children[key]
			vec.mu.RUnlock()
			p := base
			p.Labels = zipLabels(f.labels, splitLabelValues(key))
			p.Value = g.Value()
			out = append(out, p)
		}
	}
	return out
}

func zipLabels(names, values []string) []Label {
	out := make([]Label, len(names))
	for i := range names {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		out[i] = Label{Name: names[i], Value: v}
	}
	return out
}
