package edge

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// CloudLink maintains an edge server's connection to the cloud across link
// failures. Report dials lazily through the Dialer's backoff schedule,
// submits the round's census, and — when the link drops or the reply times
// out — redials and re-submits the census for the same round. The cloud
// answers re-submissions for already-completed rounds immediately with the
// region's current ratio, so a partitioned edge catches up as soon as the
// link heals.
type CloudLink struct {
	// Edge identifies this region to the cloud.
	Edge int
	// Dialer establishes cloud connections with backoff (required).
	Dialer *transport.Dialer
	// ReplyTimeout bounds the wait for the cloud's ratio reply before the
	// link is declared dead and the census re-submitted (0 = wait
	// forever).
	ReplyTimeout time.Duration
	// Attempts is the number of submit attempts per Report (default 3).
	Attempts int
	// Obs, when non-nil, is the observer the link reports through
	// (edge_cloud_redials_total, edge_cloud_reports_total). Set it before
	// the first Report; nil falls back to a private registry.
	Obs *obs.Observer
	// OnCorrection, when non-nil, is invoked (outside the link's lock) for
	// each ratio correction the cloud pushes after a fixed-lag rewind, with
	// the cloud's latest completed round and this region's corrected sharing
	// ratio. Corrections are pushed fire-and-forget, so they surface during
	// the next Report exchange; stale or redelivered frames are dropped by
	// the monotonic correction sequence before the callback fires.
	OnCorrection func(round int, x float64)

	census transport.Census // the body of the exchange in progress
	link
}

func (l *CloudLink) bound() *link {
	return l.bind(&l.Obs, "edge_cloud_reports_total", "censuses submitted to the cloud (including re-submissions)")
}

// handleOther absorbs non-reply frames that interleave with a census
// exchange: ratio corrections carrying this region are adopted monotonically
// by sequence and its ratio picked out of the set, anything else fails the
// exchange.
func (l *CloudLink) handleOther(m transport.Message) error {
	rc, at, fresh, err := l.adoptCorrection(m, l.Edge)
	if fresh && l.OnCorrection != nil {
		l.OnCorrection(rc.Round, rc.X[at])
	}
	return err
}

// Report submits one round's census and returns the next sharing ratio,
// reconnecting and re-submitting across connection failures.
func (l *CloudLink) Report(round int, counts []int) (x float64, err error) {
	err = l.bound().exchange(l.Dialer, l.Attempts, func(conn transport.Conn) (err error) {
		l.census = transport.Census{Edge: l.Edge, Round: round, Counts: counts}
		x, err = session.ReportCensusWith(conn, &l.census, l.ReplyTimeout, l.handleOther)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("edge %d: reporting round %d: %w", l.Edge, round, err)
	}
	return x, nil
}
