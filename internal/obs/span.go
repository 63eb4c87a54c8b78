package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event. Values should be
// small scalars (numbers, short strings, bools): they are retained in the
// ring buffer and marshaled to JSON on /debug/spans.
type Attr struct {
	Key   string      `json:"key"`
	Value interface{} `json:"value"`
}

// A returns an Attr (shorthand for literal construction at call sites).
func A(key string, value interface{}) Attr { return Attr{Key: key, Value: value} }

// Event is a point-in-time annotation inside a span.
type Event struct {
	Name string `json:"name"`
	// OffsetNS is the event time relative to the span start.
	OffsetNS int64  `json:"offset_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// SpanData is the immutable record of a finished span.
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

// Tracer records finished spans into a fixed-size ring buffer: the most
// recent spans win, older ones are overwritten. Starting and annotating
// spans is cheap: a span is one allocation while its attrs and events fit
// its inline storage (see Span), and nothing is retained until End commits
// it. A nil *Tracer hands out nil *Spans, on which every method is a no-op.
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []SpanData
	next  int // ring write cursor
	total int // spans committed (caps at len(ring) for fill detection)
}

// NewTracer returns a tracer retaining the most recent capacity spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanData, capacity)}
}

// Start opens a span. The span is not visible in Recent until End is
// called. Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		t: t,
		data: SpanData{
			ID:    t.nextID.Add(1),
			Name:  name,
			Start: time.Now(),
		},
	}
	s.data.Attrs, s.data.Events = append(s.attrs[:0], attrs...), s.events[:0]
	return s
}

// commit stores a finished span in the ring.
func (t *Tracer) commit(d SpanData) {
	t.mu.Lock()
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
	if t.total < len(t.ring) {
		t.total++
	}
	t.mu.Unlock()
}

// Recent returns up to n finished spans, most recent first (n <= 0 means
// all retained). Nil-safe (returns nil).
func (t *Tracer) Recent(n int) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.total {
		n = t.total
	}
	out := make([]SpanData, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
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

// A Span holds this many attrs, events and event attrs inline, and spills the
// rest to the heap. Sized for the system's spans (five attrs at most, a census
// event per hood member) within the 768-byte size class, header included.
const (
	inlineAttrs      = 5
	inlineEvents     = 6
	inlineEventAttrs = 5
)

// Span is an in-flight timed operation. All methods are safe for concurrent
// use and no-ops on a nil *Span. A span copies the attrs it is given; its
// committed SpanData points into its own storage, which End freezes.
type Span struct {
	t          *Tracer
	mu         sync.Mutex
	ended      bool
	eventUsed  uint8 // eventAttrs taken by events so far
	data       SpanData
	attrs      [inlineAttrs]Attr
	events     [inlineEvents]Event
	eventAttrs [inlineEventAttrs]Attr
}

// Attr appends an annotation to the span.
func (s *Span) Attr(key string, value interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Event records a point-in-time annotation inside the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Events = append(s.data.Events, Event{
			Name:     name,
			OffsetNS: int64(time.Since(s.data.Start)),
			Attrs:    s.eventAttrsOf(attrs),
		})
	}
	s.mu.Unlock()
}

// eventAttrsOf copies an event's attrs into the span's inline storage while
// it lasts, and to the heap after. Called with s.mu held.
func (s *Span) eventAttrsOf(attrs []Attr) []Attr {
	used := int(s.eventUsed) + len(attrs)
	if len(attrs) == 0 || used > len(s.eventAttrs) {
		return append([]Attr(nil), attrs...) // nil for none
	}
	out := s.eventAttrs[s.eventUsed:used:used]
	copy(out, attrs)
	s.eventUsed = uint8(used)
	return out
}

// End finishes the span and commits it to the tracer's ring buffer. Calling
// End more than once commits only the first.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Attrs = append(s.data.Attrs, attrs...)
	s.data.DurationNS = int64(time.Since(s.data.Start))
	d := s.data
	s.mu.Unlock()
	s.t.commit(d)
}
