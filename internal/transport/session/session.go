// Package session is the shared control-plane session layer above
// transport.Conn: the hello registration handshake, ack construction, the
// kind-dispatch read loop, and typed request/reply. Cloud, edge, and
// vehicle all run their connections through it, so protocol plumbing —
// who acks what, how stale replies are skipped, what a clean close looks
// like — lives in exactly one place.
package session

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/transport"
)

// RejectedError is a peer's application-level refusal: an Ack frame with a
// non-empty error, answering a request or a registration. It is not a
// connection failure (transport.IsConnError returns false), so retry loops
// do not heal it by redialing.
type RejectedError struct {
	// Reason is the peer's error text from the Ack frame.
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("peer rejected request: %s", e.Reason)
}

// Session wraps a Conn with the control-plane protocol helpers. It adds no
// state beyond the conn: wrapping is free and a conn may be wrapped more
// than once.
type Session struct {
	conn transport.Conn
}

// Wrap returns the session view of conn.
func Wrap(conn transport.Conn) *Session {
	return &Session{conn: conn}
}

// Conn returns the underlying connection.
func (s *Session) Conn() transport.Conn { return s.conn }

// Close closes the underlying connection.
func (s *Session) Close() error { return s.conn.Close() }

// Send encodes payload under kind and sends it.
func (s *Session) Send(kind transport.Kind, payload interface{}) error {
	m, err := transport.Encode(kind, payload)
	if err != nil {
		return err
	}
	return s.conn.Send(m)
}

// Ack answers the last inbound message: a nil err acknowledges success,
// a non-nil err carries its text to the peer (surfacing there as a
// RejectedError where a reply was awaited).
func (s *Session) Ack(err error) error {
	ack := transport.Ack{}
	if err != nil {
		ack.Err = err.Error()
	}
	return s.Send(transport.KindAck, ack)
}

// Handler processes one inbound message. A non-nil error stops the Serve
// loop and is returned to the caller.
type Handler func(m transport.Message) error

// Serve dispatches inbound messages by kind until the connection closes or
// a handler fails. A clean close (io.EOF) returns nil; other receive
// failures are returned as-is, so transport.IsConnError classification
// still works on them. Messages with no handler go to unknown; a nil
// unknown acks an "unexpected message kind" error back and keeps serving.
func (s *Session) Serve(handlers map[transport.Kind]Handler, unknown Handler) error {
	for {
		m, err := s.conn.Recv()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		h, ok := handlers[m.Kind]
		if !ok {
			h = unknown
		}
		if h == nil {
			if err := s.Ack(fmt.Errorf("unexpected message kind %s", m.Kind)); err != nil {
				return err
			}
			continue
		}
		if err := h(m); err != nil {
			return err
		}
	}
}

// Register performs the client side of the hello handshake: send Hello,
// await the Ack. A rejection surfaces as *RejectedError. On a lossy link
// the ack can vanish while a round's broadcast still arrives (servers
// register before acking); such a message proves the session is live, so
// it is returned for the caller's main loop to process instead of failing
// the handshake. timeout bounds the ack wait (0 = forever); on expiry the
// conn is closed (see transport.RecvTimeout) and must be redialed.
func (s *Session) Register(vehicle int, timeout time.Duration) (*transport.Message, error) {
	if err := s.Send(transport.KindHello, transport.Hello{Vehicle: vehicle}); err != nil {
		return nil, fmt.Errorf("sending hello: %w", err)
	}
	m, err := transport.RecvTimeout(s.conn, timeout)
	if err != nil {
		return nil, fmt.Errorf("waiting for registration ack: %w", err)
	}
	if m.Kind != transport.KindAck {
		return &m, nil // ack lost in transit; the session is live anyway
	}
	var ack transport.Ack
	if err := transport.Decode(m, transport.KindAck, &ack); err != nil {
		return nil, err
	}
	if ack.Err != "" {
		return nil, &RejectedError{Reason: ack.Err}
	}
	return nil, nil
}

// AcceptRegistration performs the server side of the hello handshake: it
// reads the first message and decodes the Hello. A malformed first message
// is answered with an error ack before the error is returned, so the peer
// learns why the session died. The caller acks success itself — after it
// has registered the connection — via Ack(nil), preserving the
// register-before-ack ordering lossy-link clients rely on.
func (s *Session) AcceptRegistration() (transport.Hello, error) {
	m, err := s.conn.Recv()
	if err != nil {
		return transport.Hello{}, err
	}
	var hello transport.Hello
	if err := transport.Decode(m, transport.KindHello, &hello); err != nil {
		_ = s.Ack(err)
		return transport.Hello{}, err
	}
	return hello, nil
}

// Request sends payload under kind and waits for a reply of replyKind,
// decoding it into out. An Ack reply is a refusal and surfaces as
// *RejectedError. Replies of replyKind for which accept returns false are
// skipped (stale answers left over from duplicated or re-submitted
// requests); a nil accept takes the first. timeout bounds each wait (0 =
// forever); on expiry the conn is closed and must be redialed.
func (s *Session) Request(kind transport.Kind, payload interface{},
	replyKind transport.Kind, out interface{}, timeout time.Duration,
	accept func() bool) error {
	return s.RequestWith(kind, payload, replyKind, out, timeout, accept, nil)
}

// RequestWith is Request with a handler for interleaved frames: any reply
// that is neither an Ack nor of replyKind is passed to onOther (when
// non-nil) and the wait continues, instead of failing the exchange. The
// cloud pushes asynchronous frames — e.g. ratio corrections after a
// fixed-lag rewind — on the same connection a census reply is awaited on,
// so request loops must tolerate them. An onOther error aborts the request.
func (s *Session) RequestWith(kind transport.Kind, payload interface{},
	replyKind transport.Kind, out interface{}, timeout time.Duration,
	accept func() bool, onOther Handler) error {
	if err := s.Send(kind, payload); err != nil {
		return err
	}
	for {
		reply, err := transport.RecvTimeout(s.conn, timeout)
		if err != nil {
			return err
		}
		if reply.Kind == transport.KindAck {
			var ack transport.Ack
			if err := transport.Decode(reply, transport.KindAck, &ack); err != nil {
				return err
			}
			return &RejectedError{Reason: ack.Err}
		}
		if reply.Kind != replyKind && onOther != nil {
			if err := onOther(reply); err != nil {
				return err
			}
			continue
		}
		if err := transport.Decode(reply, replyKind, out); err != nil {
			return err
		}
		if accept != nil && !accept() {
			continue
		}
		return nil
	}
}

// Notify sends payload under kind and waits for the peer's Ack: the one
// acked-frame exchange behind lease renewals, gossip censuses and hood
// beats. It must run on a connection the sender owns for the exchange — on
// a shared conn the ack would race with census/ratio replies (Request
// treats any Ack as a refusal). A refusal surfaces as *RejectedError.
// timeout bounds the ack wait (0 = forever); on expiry the conn is closed
// and must be redialed.
func (s *Session) Notify(kind transport.Kind, payload interface{}, timeout time.Duration) error {
	if err := s.Send(kind, payload); err != nil {
		return fmt.Errorf("sending %s: %w", kind, err)
	}
	m, err := transport.RecvTimeout(s.conn, timeout)
	if err != nil {
		return fmt.Errorf("waiting for %s ack: %w", kind, err)
	}
	var ack transport.Ack
	if err := transport.Decode(m, transport.KindAck, &ack); err != nil {
		return err
	}
	if ack.Err != "" {
		return &RejectedError{Reason: ack.Err}
	}
	return nil
}

// RenewLease sends one membership-lease renewal on conn and waits for the
// coordinator's ack (see Notify). A refusal — e.g. an unknown edge id —
// surfaces as *RejectedError.
func RenewLease(conn transport.Conn, edgeID int, ttl, timeout time.Duration) error {
	return Wrap(conn).Notify(transport.KindLease,
		transport.Lease{Edge: edgeID, TTLMillis: ttl.Milliseconds()}, timeout)
}

// ReportCensusBatch submits one round's censuses for a whole region group in
// a single frame (step ① batched) and waits for the matching RatioBatch
// (step ② batched), skipping stale replies from re-submitted batches. Frames
// the coordinator pushes asynchronously on the same connection — ratio
// corrections after a fixed-lag rewind — go to onOther (nil fails on them).
// A refusal surfaces as *RejectedError.
func ReportCensusBatch(conn transport.Conn, batch transport.CensusBatch,
	replyTimeout time.Duration, onOther Handler) (transport.RatioBatch, error) {
	var reply transport.RatioBatch
	err := Wrap(conn).RequestWith(
		transport.KindCensusBatch, batch,
		transport.KindRatioBatch, &reply, replyTimeout,
		func() bool {
			// Round alone is not enough: a duplicated frame (or an exchange
			// for the same round with a different census subset, e.g. a
			// shard's main batch vs a late straggler) also answers round+1.
			// The receiver echoes the request's edges in order, so the edge
			// list is the exchange's identity.
			if reply.Round != batch.Round+1 || len(reply.Edges) != len(batch.Censuses) {
				return false
			}
			for i, cs := range batch.Censuses {
				if reply.Edges[i] != cs.Edge {
					return false
				}
			}
			return true
		},
		onOther,
	)
	if err != nil {
		return transport.RatioBatch{}, err
	}
	return reply, nil
}

// GossipCensus pushes one round's census to a gossip peer on conn and waits
// for the peer's ack (see Notify). Unlike ReportCensusWith there is no ratio
// reply: peers fold each other's censuses into their own local engines. A
// peer refusal (e.g. a census for a region outside the neighborhood)
// surfaces as *RejectedError.
func GossipCensus(conn transport.Conn, edgeID, round int, counts []int,
	timeout time.Duration) error {
	return Wrap(conn).Notify(transport.KindCensus,
		transport.Census{Edge: edgeID, Round: round, Counts: counts}, timeout)
}

// SendHoodBeat pushes one gossip leadership heartbeat to a neighborhood
// peer on conn and waits for the peer's ack (see Notify). Receivers ack
// every well-formed beat — including stale-epoch ones, which they ignore
// after acking — so a refusal (*RejectedError) means the frame itself was
// malformed, not that the peer disputes the leadership.
func SendHoodBeat(conn transport.Conn, beat transport.HoodBeat,
	timeout time.Duration) error {
	return Wrap(conn).Notify(transport.KindHoodBeat, beat, timeout)
}

// EscalateDigest submits a neighborhood's compacted round digest to the
// cloud control plane and waits for the matching RatioBatch reply (the
// cloud's current view of the digest members' ratios, round = the digest's
// last round + 1). Stale replies from re-submitted digests are skipped by
// the same edge-list identity rule batched censuses use. A cloud refusal
// surfaces as *RejectedError.
func EscalateDigest(conn transport.Conn, d transport.Digest,
	replyTimeout time.Duration) (transport.RatioBatch, error) {
	if len(d.Rounds) == 0 {
		return transport.RatioBatch{}, fmt.Errorf("escalating empty digest")
	}
	last := d.Rounds[len(d.Rounds)-1].Round
	var reply transport.RatioBatch
	err := Wrap(conn).Request(
		transport.KindDigest, d,
		transport.KindRatioBatch, &reply, replyTimeout,
		func() bool {
			if reply.Round != last+1 || len(reply.Edges) != len(d.Members) {
				return false
			}
			for i, e := range d.Members {
				if reply.Edges[i] != e {
					return false
				}
			}
			return true
		},
	)
	if err != nil {
		return transport.RatioBatch{}, err
	}
	return reply, nil
}

// ReportCensusWith submits one round's census on conn (step ①) and waits for
// the cloud's matching next-round ratio (step ②), skipping stale replies; a
// refusal surfaces as *RejectedError. Frames the cloud pushes on the census
// connection (ratio corrections after a rewind) go to onOther (nil: fail).
func ReportCensusWith(conn transport.Conn, edgeID, round int, counts []int,
	replyTimeout time.Duration, onOther Handler) (float64, error) {
	var ratio transport.Ratio
	err := Wrap(conn).RequestWith(
		transport.KindCensus,
		transport.Census{Edge: edgeID, Round: round, Counts: counts},
		transport.KindRatio, &ratio, replyTimeout,
		func() bool { return ratio.Round == round+1 },
		onOther,
	)
	if err != nil {
		return 0, err
	}
	return ratio.X, nil
}
