package obs

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event: a scalar held
// without boxing, so annotating a span allocates nothing. It marshals to
// JSON as {"key": …, "value": …}.
type Attr struct {
	Key  string
	str  string
	num  uint64 // the bits of an integer, a float64 or a bool
	kind uint8
}

const (
	kindNil = iota
	kindBool
	kindInt
	kindFloat64
	kindString
)

// A returns an Attr. value is nil, a bool, an int or int64, a float64 or a
// string; any other value is recorded as its type's name. A keeps none of
// value's storage but a string's bytes, so the caller's conversion to
// interface{} stays on its stack.
func A(key string, value interface{}) Attr {
	a := Attr{Key: key}
	switch v := value.(type) {
	case nil:
	case bool:
		a.kind = kindBool
		if v {
			a.num = 1
		}
	case int:
		a.kind, a.num = kindInt, uint64(v)
	case int64:
		a.kind, a.num = kindInt, uint64(v)
	case float64:
		a.kind, a.num = kindFloat64, math.Float64bits(v)
	case string:
		a.kind, a.str = kindString, v
	default:
		a.kind, a.str = kindString, reflect.TypeOf(v).String()
	}
	return a
}

// Value returns the attr's value as A was given it, an int for any integer.
func (a Attr) Value() interface{} {
	switch a.kind {
	case kindBool:
		return a.num == 1
	case kindInt:
		return int(a.num)
	case kindFloat64:
		return math.Float64frombits(a.num)
	case kindString:
		return a.str
	}
	return nil
}

// MarshalJSON writes the attr as {"key": …, "value": …}.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key   string      `json:"key"`
		Value interface{} `json:"value"`
	}{a.Key, a.Value()})
}

// Event is a point-in-time annotation inside a span.
type Event struct {
	Name string `json:"name"`
	// OffsetNS is the event time relative to the span start.
	OffsetNS int64  `json:"offset_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// SpanData is the record of a finished span, a copy nothing else writes to.
type SpanData struct {
	// ID is a tracer-unique, monotonically increasing span id.
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// DurationNS is End-Start in nanoseconds.
	DurationNS int64   `json:"duration_ns"`
	Attrs      []Attr  `json:"attrs,omitempty"`
	Events     []Event `json:"events,omitempty"`
}

// Tracer keeps the most recently started spans in a fixed ring of slots, one
// per span, whose storage is reused: span id i lives in slot i mod capacity
// from its Start until the span capacity starts later takes the slot over.
// Starting, annotating and ending a span allocate nothing once the slot has
// grown to the span's attrs and events, and a finished span is visible in
// Recent until its slot is taken. A nil *Tracer hands out zero Spans, on
// which every method is a no-op.
type Tracer struct {
	nextID atomic.Uint64
	slots  []slot
}

// slot is one span's storage. The span whose id it holds may write to it
// until End; nothing else does but the next Start.
type slot struct {
	mu         sync.Mutex
	ended      bool
	data       SpanData // ID 0 before the first span
	eventAttrs []Attr   // the storage data.Events' attrs are cut from
}

// NewTracer returns a tracer retaining the most recent capacity spans
// (minimum 1). A slot starts with room for five attrs, six events and five
// event attrs, and keeps whatever a span grows it to.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{slots: make([]slot, max(capacity, 1))}
	for i := range t.slots {
		s := &t.slots[i]
		s.data.Attrs, s.data.Events, s.eventAttrs = make([]Attr, 0, 5), make([]Event, 0, 6), make([]Attr, 0, 5)
	}
	return t
}

// Span is a handle on an in-flight timed operation. Its methods are safe for
// concurrent use and no-ops on the zero Span, after End, and once the span's
// slot has been taken over by a newer span: a handle writes only to its own
// span's record.
type Span struct {
	s  *slot
	id uint64
}

// Start opens a span. The span is not visible in Recent until End is
// called. Nil-safe: a nil tracer returns the zero span.
func (t *Tracer) Start(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	id := t.nextID.Add(1)
	s := &t.slots[(id-1)%uint64(len(t.slots))]
	s.mu.Lock()
	if id > s.data.ID { // else a span started capacity later took the slot first
		s.ended, s.eventAttrs = false, s.eventAttrs[:0]
		s.data = SpanData{ID: id, Name: name, Start: time.Now(), Attrs: append(s.data.Attrs[:0], attrs...), Events: s.data.Events[:0]}
	}
	s.mu.Unlock()
	return Span{s, id}
}

// open locks and returns the span's slot while the span may still write to
// it, else nil (the zero span, an ended one, or one whose slot was taken).
func (sp Span) open() *slot {
	if sp.s == nil {
		return nil
	}
	if sp.s.mu.Lock(); sp.s.data.ID != sp.id || sp.s.ended {
		sp.s.mu.Unlock()
		return nil
	}
	return sp.s
}

// Attr appends an annotation to the span.
func (sp Span) Attr(key string, value interface{}) {
	if s := sp.open(); s != nil {
		s.data.Attrs = append(s.data.Attrs, A(key, value))
		s.mu.Unlock()
	}
}

// Event records a point-in-time annotation inside the span.
func (sp Span) Event(name string, attrs ...Attr) {
	if s := sp.open(); s != nil {
		from := len(s.eventAttrs)
		s.eventAttrs = append(s.eventAttrs, attrs...)
		s.data.Events = append(s.data.Events, Event{name, int64(time.Since(s.data.Start)), s.eventAttrs[from:len(s.eventAttrs):len(s.eventAttrs)]})
		s.mu.Unlock()
	}
}

// End finishes the span, which becomes visible in Recent. Calling End more
// than once ends it only the first time.
func (sp Span) End(attrs ...Attr) {
	if s := sp.open(); s != nil {
		s.data.Attrs = append(s.data.Attrs, attrs...)
		s.data.DurationNS = int64(time.Since(s.data.Start))
		s.ended = true
		s.mu.Unlock()
	}
}

// record copies a finished span out of its slot. Called with s.mu held.
func (s *slot) record() SpanData {
	d := s.data
	d.Attrs, d.Events = slices.Clone(d.Attrs), slices.Clone(d.Events)
	for i := range d.Events {
		d.Events[i].Attrs = slices.Clone(d.Events[i].Attrs)
	}
	return d
}

// Recent returns up to n finished spans, most recently started first (n <= 0
// means all retained), as copies. Nil-safe (returns nil).
func (t *Tracer) Recent(n int) []SpanData {
	if t == nil {
		return nil
	}
	if n <= 0 || n > len(t.slots) {
		n = len(t.slots)
	}
	var out []SpanData
	last := t.nextID.Load()
	for id := last; id > 0 && last-id < uint64(len(t.slots)) && len(out) < n; id-- {
		s := &t.slots[(id-1)%uint64(len(t.slots))]
		s.mu.Lock()
		if s.data.ID == id && s.ended {
			out = append(out, s.record())
		}
		s.mu.Unlock()
	}
	return out
}

// WriteJSON writes up to n recent spans (most recent first) as a JSON
// array. Nil-safe (writes an empty array).
func (t *Tracer) WriteJSON(w io.Writer, n int) error {
	spans := t.Recent(n)
	if spans == nil {
		spans = []SpanData{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
