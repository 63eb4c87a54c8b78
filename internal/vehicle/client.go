package vehicle

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// ErrRejected is returned (wrapped) when the edge server refuses the
// client's registration. A reconnecting client treats it as transient: the
// server may still hold the ghost of a dropped session.
var ErrRejected = errors.New("vehicle: registration rejected")

// Client drives an Agent against an edge-server connection: it registers
// with Hello, then for every Policy broadcast it revises the agent's
// decision (step ③), uploads the shared data (step ④), and absorbs the
// Delivery (step ⑤). It runs until the connection closes.
type Client struct {
	Agent *Agent
	// Mu is the per-round revision probability passed to Agent.Revise.
	Mu float64
	// Cap is the capability table used to value received data.
	Cap *sensor.CapabilityTable
	// RegisterTimeout bounds the wait for the registration ack (0 = wait
	// forever). On a lossy link the ack can vanish; the timeout lets
	// RunWithReconnect retry instead of wedging.
	RegisterTimeout time.Duration
	// Stop, when non-nil and closed, makes RunWithReconnect return nil
	// after the current session instead of redialing, and ends a redial's
	// backoff wait at once.
	Stop <-chan struct{}
	// Obs, when non-nil, is the observer the client reports through
	// (vehicle_sessions_total, vehicle_reconnects_total). Typically one
	// observer is shared by a whole fleet, so the counters are joint.
	Obs *obs.Observer
}

// register performs the Hello handshake on sess. On a lossy link the ack can
// vanish while a round's policy broadcast still arrives (the edge registers
// the vehicle before acking); the session layer returns such a message for
// the main loop to process instead of failing the handshake.
func (c *Client) register(sess *session.Session) (*transport.Message, error) {
	pending, err := sess.Register(c.Agent.Profile.ID, c.RegisterTimeout)
	var rej *session.RejectedError
	switch {
	case err == nil:
		return pending, nil
	case errors.As(err, &rej):
		return nil, fmt.Errorf("vehicle %d: %w: %s", c.Agent.Profile.ID, ErrRejected, rej.Reason)
	default:
		return nil, fmt.Errorf("vehicle %d: %w", c.Agent.Profile.ID, err)
	}
}

// Run executes the client loop. It returns nil when the connection closes
// normally (io.EOF) and an error on protocol violations.
func (c *Client) Run(conn transport.Conn) error {
	if c.Agent == nil {
		return fmt.Errorf("vehicle: client has no agent")
	}
	if c.Cap == nil {
		c.Cap = sensor.TableIII()
	}
	sess := session.Wrap(conn)
	pending, err := c.register(sess)
	if err != nil {
		return err
	}
	v := &clientConn{
		c:             c,
		sess:          sess,
		duplicates:    c.Obs.Counter("vehicle_duplicate_frames_total", "duplicated policy/delivery frames absorbed idempotently"),
		policyRound:   -1,
		deliveryRound: -1,
	}
	if pending != nil {
		if err := v.handle(*pending); err != nil {
			return err
		}
	}
	return sess.Serve(v.handle)
}

// clientConn is one registered session's state. Application is idempotent
// per session: a duplicated or replayed Policy broadcast re-sends the
// round's cached upload instead of revising the decision and growing the
// shared-cost ledger twice, and a duplicated Delivery is dropped rather than
// double-counted into the world value.
type clientConn struct {
	c          *Client
	sess       *session.Session
	duplicates *obs.Counter

	policyRound   int
	up            transport.Upload // the round's upload, sent by pointer so Send does not box it
	shares        []float64        // the last policy's Counts as the cell's decision distribution, reused
	deliveryRound int
}

// handle serves one inbound frame; a frame of a kind a vehicle does not
// serve ends the session with an error.
func (v *clientConn) handle(m transport.Message) error {
	c := v.c
	switch m.Kind {
	case transport.KindPolicy:
		var pol transport.Policy
		if err := transport.Decode(m, transport.KindPolicy, &pol); err != nil {
			return err
		}
		if v.policyRound >= 0 && pol.Round <= v.policyRound {
			v.duplicates.Inc()
			if pol.Round < v.policyRound {
				return nil // stale reordered broadcast; its upload already went out
			}
			if err := v.sess.Send(transport.KindUpload, &v.up); err != nil {
				return fmt.Errorf("vehicle %d: re-sending upload: %w", c.Agent.Profile.ID, err)
			}
			return nil
		}
		if len(pol.Counts) > 0 {
			v.shares = edge.Shares(v.shares, pol.Counts)
			if err := c.Agent.Revise(pol.X, v.shares, c.Mu); err != nil {
				return err
			}
		}
		v.policyRound = pol.Round
		v.up = c.Agent.BuildUpload(pol.Round)
		if err := v.sess.Send(transport.KindUpload, &v.up); err != nil {
			return fmt.Errorf("vehicle %d: sending upload: %w", c.Agent.Profile.ID, err)
		}
		return nil
	case transport.KindDelivery:
		var del transport.Delivery
		if err := transport.Decode(m, transport.KindDelivery, &del); err != nil {
			return err
		}
		if v.deliveryRound >= 0 && del.Round <= v.deliveryRound {
			v.duplicates.Inc()
			return nil
		}
		v.deliveryRound = del.Round
		return c.Agent.AbsorbDelivery(del, c.Cap)
	case transport.KindAck:
		// The edge acks only what it refuses; an older edge also acks every
		// accepted upload, which is absorbed here.
		var ack transport.Ack
		if err := transport.Decode(m, transport.KindAck, &ack); err != nil {
			return err
		}
		if ack.Err != "" {
			return fmt.Errorf("vehicle %d: server rejected message: %s", c.Agent.Profile.ID, ack.Err)
		}
		return nil
	}
	return fmt.Errorf("vehicle %d: unexpected message kind %s", c.Agent.Profile.ID, m.Kind)
}

// stopped reports whether the client's Stop channel is closed.
func (c *Client) stopped() bool {
	if c.Stop == nil {
		return false
	}
	select {
	case <-c.Stop:
		return true
	default:
		return false
	}
}

// RunWithReconnect keeps the vehicle's session alive across connection
// drops: it dials through d (with d's backoff schedule), runs the client
// loop, and redials — re-registering with a fresh Hello — whenever the
// session ends with a clean EOF, a connection-level failure, or a stale
// registration rejection. The agent's decision state survives reconnects.
// It returns nil when Stop is closed, and an error when the dialer
// exhausts its attempts or the session hits a protocol violation.
func (c *Client) RunWithReconnect(d *transport.Dialer) error {
	if c.Agent == nil {
		return fmt.Errorf("vehicle: client has no agent")
	}
	sessions := c.Obs.Counter("vehicle_sessions_total", "vehicle client sessions dialed (first connects plus reconnects)")
	reconnects := c.Obs.Counter("vehicle_reconnects_total", "vehicle client redials after a dropped session")
	rejected := 0 // consecutive sessions ending in a registration rejection
	for session := 0; ; session++ {
		if c.stopped() {
			return nil
		}
		conn, err := d.DialRetry(c.Stop)
		if err == nil {
			sessions.Inc()
			if session > 0 {
				reconnects.Inc()
			}
		}
		if err != nil {
			if c.stopped() {
				return nil
			}
			return fmt.Errorf("vehicle %d: reconnect: %w", c.Agent.Profile.ID, err)
		}
		err = c.Run(conn)
		_ = conn.Close()
		switch {
		case err == nil:
			// The server closed the session; redial unless stopping.
			rejected = 0
		case errors.Is(err, ErrRejected):
			// The server still holds a ghost of the dropped session. One
			// rejection clears quickly; repeated ones mean the server is
			// slow to notice the dead session (e.g. mid-recovery), so each
			// escalates the redial pause along the dialer's schedule.
			rejected++
		case transport.IsConnError(err):
			// The link died mid-session.
			rejected = 0
		default:
			return err
		}
		// Pace the redial so a flapping server cannot spin the client.
		if !d.Pause(rejected, c.Stop) {
			return nil
		}
	}
}
