package main

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// linkClass groups the connections the tier dials by the hop they carry.
type linkClass int

const (
	linkVehicleEdge linkClass = iota // vehicle client <-> its edge server
	linkEdgeUp                       // an edge's (or the flood driver's) uplink: cloud link, batch link, digest escalation
	linkTier                         // inside the consensus tier: shard -> aggregator, gossip peer <-> peer
	numLinkClasses
)

var linkClassNames = [numLinkClasses]string{"vehicle_edge", "edge_up", "tier"}

// sampledKinds are the frame kinds whose real messages the tracer keeps for
// the codec probes.
var sampledKinds = [...]transport.Kind{
	transport.KindCensus, transport.KindCensusBatch, transport.KindUpload,
	transport.KindDelivery, transport.KindDigest,
}

const samplesPerKind = 64

// span is one timed call the driver made into a layer.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Round  int    `json:"round"`
	Edge   int    `json:"edge"`  // region (fleet) or link index (flood); -1 for the round span
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
}

// tracer measures the tier from outside: it wraps the conns the injected
// dial funcs return (counting frames and timing Send per link class, and
// keeping a few real frames of each kind) and holds the spans the driver
// records around its calls into each package. Wrappers are installed when
// the tier is built; while off they add one atomic load per frame.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	frames [numLinkClasses]atomic.Int64 // sent + received on the dialing side

	sampled [len(sampledKinds)]atomic.Int32 // frames seen per kind; the first samplesPerKind are kept

	mu      sync.Mutex
	conns   []*countingConn
	samples map[transport.Kind][]transport.Message
	spans   []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[transport.Kind][]transport.Message{}}
}

// dial wraps fn's conns in the tier's tracer, if it has one.
func (t *tier) dial(class linkClass, fn func() (transport.Conn, error)) func() (transport.Conn, error) {
	tr := t.tr
	if tr == nil {
		return fn
	}
	return func() (transport.Conn, error) {
		conn, err := fn()
		if err != nil {
			return nil, err
		}
		cc := &countingConn{Conn: conn, tr: tr, class: class}
		tr.mu.Lock()
		tr.conns = append(tr.conns, cc)
		tr.mu.Unlock()
		return cc, nil
	}
}

// countingConn passes every call through to the wrapped conn, the way
// transport.FaultyConn does, counting and timing on the way.
type countingConn struct {
	transport.Conn
	tr    *tracer
	class linkClass

	mu     sync.Mutex
	sendNS []int64
}

func (c *countingConn) Send(m transport.Message) error {
	if !c.tr.on.Load() {
		return c.Conn.Send(m)
	}
	start := time.Now()
	err := c.Conn.Send(m)
	d := time.Since(start)
	c.mu.Lock()
	c.sendNS = append(c.sendNS, int64(d))
	c.mu.Unlock()
	c.tr.saw(c.class, m)
	return err
}

func (c *countingConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && c.tr.on.Load() {
		c.tr.saw(c.class, m)
	}
	return m, err
}

func (tr *tracer) saw(class linkClass, m transport.Message) {
	tr.frames[class].Add(1)
	for i, k := range sampledKinds {
		if m.Kind != k {
			continue
		}
		if tr.sampled[i].Add(1) <= samplesPerKind {
			tr.mu.Lock()
			tr.samples[k] = append(tr.samples[k], m)
			tr.mu.Unlock()
		}
		return
	}
}

// sendSamples returns every Send duration recorded while on, in µs.
func (tr *tracer) sendSamples() []float64 {
	tr.mu.Lock()
	conns := append([]*countingConn(nil), tr.conns...)
	tr.mu.Unlock()
	var out []float64
	for _, c := range conns {
		c.mu.Lock()
		for _, ns := range c.sendNS {
			out = append(out, float64(ns)/1e3)
		}
		c.mu.Unlock()
	}
	return out
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// record turns one round's stamps into spans: the round, and under it each
// reporter's edge.run_round and uplink call.
func (tr *tracer) record(round int, st *stamps, uplink string) {
	tr.spans = append(tr.spans, span{Name: "round", Round: round, Edge: -1, Start: tr.since(st.start), End: tr.since(st.end)})
	for i := range st.repStart {
		if !st.runEnd[i].IsZero() {
			tr.spans = append(tr.spans, span{Name: "edge.run_round", Parent: "round", Round: round, Edge: i,
				Start: tr.since(st.start), End: tr.since(st.runEnd[i])})
		}
		tr.spans = append(tr.spans, span{Name: uplink, Parent: "round", Round: round, Edge: i,
			Start: tr.since(st.repStart[i]), End: tr.since(st.repEnd[i])})
	}
}

func (tr *tracer) writeSpans(w io.Writer) error {
	return json.NewEncoder(w).Encode(tr.spans)
}
