package edge

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// Server is the networked edge server: it accepts vehicle connections on a
// transport.Listener, drives synchronized data-sharing rounds, and talks to
// the cloud through a client connection. The same server runs over the
// in-process transport (simulation) and TCP (distributed demo).
type Server struct {
	// ID identifies this edge server / region to the cloud.
	ID int

	dist *Distributor

	mu     sync.Mutex
	conns  map[int]transport.Conn
	census []int // last round's decision census, broadcast with the next policy
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// RunRound publishes in target how many uploads it is waiting for, before
	// it broadcasts the policy; the upload handler that brings the round's
	// count up to it leaves one token in uploaded. A token left over from a
	// round that ended first only makes the next wait re-check its count.
	target   atomic.Int64
	uploaded chan struct{}
	// members is RunRound's snapshot of conns, reused from round to round.
	members []member
	// delivery is RunRound's step-⑤ body, rewritten for every member: Send
	// has encoded the last one by the time it returns.
	delivery transport.Delivery

	obsv    *obs.Observer
	metrics edgeMetrics
}

// member is one registered vehicle in a round's snapshot.
type member struct {
	vehicle int
	conn    transport.Conn
}

// edgeMetrics are the edge server's registry-backed instruments.
type edgeMetrics struct {
	rounds        *obs.Counter   // edge_rounds_total
	uploads       *obs.Counter   // edge_round_uploads_total
	vehicles      *obs.Gauge     // edge_vehicles
	roundDuration *obs.Histogram // edge_round_duration_seconds
}

func newEdgeMetrics(o *obs.Observer) edgeMetrics {
	return edgeMetrics{
		rounds:        o.Counter("edge_rounds_total", "data-sharing rounds driven by this edge server"),
		uploads:       o.Counter("edge_round_uploads_total", "vehicle uploads collected across rounds"),
		vehicles:      o.Gauge("edge_vehicles", "currently registered vehicle connections"),
		roundDuration: o.Histogram("edge_round_duration_seconds", "RunRound walltime (steps 3-5)", nil),
	}
}

// NewServer builds an edge server with the given id over the decision
// lattice.
func NewServer(id int, lat *lattice.Lattice, seed int64) *Server {
	o := obs.New()
	return &Server{
		ID:       id,
		dist:     NewDistributor(lat, seed),
		conns:    make(map[int]transport.Conn),
		census:   make([]int, lat.K()),
		uploaded: make(chan struct{}, 1),
		closed:   make(chan struct{}),
		obsv:     o,
		metrics:  newEdgeMetrics(o),
	}
}

// Instrument re-points the server's metrics and per-census round spans at
// the given observer, so several components report through one registry.
// Call before Serve; counts already accumulated are not carried over.
func (s *Server) Instrument(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsv = o
	s.metrics = newEdgeMetrics(o)
	s.metrics.vehicles.Set(float64(len(s.conns)))
}

// Serve accepts vehicle connections until the listener is torn down or the
// server closes. Transient accept failures — injected faults and real ones
// alike — are retried with bounded backoff (see transport.AcceptLoop). It
// blocks; run it in a goroutine.
func (s *Server) Serve(l transport.Listener) {
	transport.AcceptLoop(l, s.closed, func(conn transport.Conn) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	})
}

// Close terminates the server: vehicle connections are closed and Serve
// goroutines drain.
func (s *Server) Close() {
	s.once.Do(func() { close(s.closed) })
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// SetShares seeds the policy broadcast's last-round decision census, so a
// restarted server resumes from the census its predecessor published
// instead of the empty cold-start one, whose uniform shares would perturb
// every vehicle's next revision. Call before the first RunRound with a
// length-K slice.
func (s *Server) SetShares(counts []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.census = append([]int(nil), counts...)
}

// EnablePerception configures edge-side perception (see perception.go):
// the server contributes road-side sensor items of the given modalities to
// every round's distribution.
func (s *Server) EnablePerception(share sensor.Mask) error {
	return s.dist.EnablePerception(share)
}

// NumVehicles returns the number of registered vehicle connections.
func (s *Server) NumVehicles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) handleConn(conn transport.Conn) {
	sess := session.Wrap(conn)
	defer sess.Close()

	// Registration handshake (AcceptRegistration acks a malformed hello).
	hello, err := sess.AcceptRegistration()
	if err != nil {
		return
	}
	s.mu.Lock()
	if old, dup := s.conns[hello.Vehicle]; dup {
		// The vehicle reconnected before we noticed the old session die:
		// the new session wins, the stale conn is closed.
		_ = old.Close()
	}
	s.conns[hello.Vehicle] = conn
	s.metrics.vehicles.Set(float64(len(s.conns)))
	s.mu.Unlock()
	_ = sess.Ack(nil)

	defer func() {
		s.mu.Lock()
		// Only deregister if a newer session has not replaced this conn.
		if s.conns[hello.Vehicle] == conn {
			delete(s.conns, hello.Vehicle)
			s.metrics.vehicles.Set(float64(len(s.conns)))
		}
		s.mu.Unlock()
	}()

	var up transport.Upload // one per session: the read loop handles a frame at a time
	_ = sess.Serve(map[transport.Kind]session.Handler{
		transport.KindUpload: func(m transport.Message) error {
			up = transport.Upload{}
			if err := transport.Decode(m, transport.KindUpload, &up); err != nil {
				_ = sess.Ack(err)
				return nil
			}
			// An accepted upload is acknowledged by the round's delivery
			// and a stale one (a delayed policy made the vehicle upload for
			// an old round; harmless) by nothing; only a refusal is acked.
			switch err := s.dist.AddUpload(up); {
			case err == nil:
				if s.dist.NumUploads() >= int(s.target.Load()) {
					select {
					case s.uploaded <- struct{}{}:
					default:
					}
				}
			case !errors.Is(err, ErrStaleUpload):
				_ = sess.Ack(err)
			}
			return nil
		},
	}, nil) // nil unknown handler: ack "unexpected message kind", keep serving
}

// RunRound drives one synchronized data-sharing round: broadcast the policy
// (step ③), wait until every registered vehicle has uploaded or the timeout
// expires (step ④), distribute the collected items (step ⑤), and return the
// decision census (for step ①). Rounds run one at a time.
func (s *Server) RunRound(round int, x float64, timeout time.Duration) ([]int, error) {
	start := time.Now()
	s.mu.Lock()
	m := s.metrics
	span := s.obsv.Span("edge_round", obs.A("edge", s.ID), obs.A("round", round), obs.A("x", x))
	s.mu.Unlock()
	// A round that fails still shows in /debug/spans, with its error.
	fail := func(err error) ([]int, error) {
		span.End(obs.A("error", err.Error()))
		return nil, err
	}
	if err := s.dist.BeginRound(round, x); err != nil {
		return fail(err)
	}

	s.mu.Lock()
	clear(s.members) // do not pin the conns of vehicles that left
	members := s.members[:0]
	for v, c := range s.conns {
		members = append(members, member{v, c})
	}
	s.members = members
	last := s.census
	s.mu.Unlock()

	s.target.Store(int64(len(members)))
	policy, err := transport.Encode(transport.KindPolicy, &transport.Policy{
		Round:  round,
		X:      x,
		Counts: last,
	})
	if err != nil {
		return fail(err)
	}
	for _, mb := range members {
		// Dead connections are detected by their read loop; ignore here.
		_ = mb.conn.Send(policy)
	}

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for s.dist.NumUploads() < len(members) {
		select {
		case <-s.uploaded:
		case <-deadline.C:
			// Proceed with whatever arrived.
			span.Event("upload_deadline", obs.A("uploads", s.dist.NumUploads()), obs.A("vehicles", len(members)))
			goto distribute
		case <-s.closed:
			span.End(obs.A("error", "closed"))
			return nil, transport.ErrClosed
		}
	}
distribute:
	m.uploads.Add(int64(s.dist.NumUploads()))
	span.Event("distribute", obs.A("uploads", s.dist.NumUploads()))
	deliveries := s.dist.Distribute()
	for _, mb := range members {
		items, ok := deliveries[mb.vehicle]
		if !ok {
			continue
		}
		s.delivery = transport.Delivery{Round: round, Items: items}
		m, err := transport.Encode(transport.KindDelivery, &s.delivery)
		if err != nil {
			return fail(err)
		}
		_ = mb.conn.Send(m)
	}

	census := s.dist.Census()
	s.mu.Lock()
	// Copied: census is the caller's, and this round's broadcast is done
	// with s.census.
	s.census = append(s.census[:0], census...)
	s.mu.Unlock()
	m.rounds.Inc()
	m.roundDuration.Observe(time.Since(start).Seconds())
	total := 0
	for _, c := range census {
		total += c
	}
	span.End(obs.A("census_total", total))
	return census, nil
}
