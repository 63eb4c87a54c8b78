// Package transport carries the cooperative-perception control and data
// plane of Fig. 1 between vehicles, edge servers, and the cloud: typed
// messages for steps ①-⑤, one compact binary wire format (binary.go), an
// in-process transport for simulation, and a TCP transport for the
// distributed demo.
package transport

import (
	"fmt"

	"repro/internal/sensor"
)

// Kind discriminates message payloads on the wire.
type Kind string

// Message kinds, following the numbered steps of Fig. 1.
const (
	// KindHello registers a vehicle with its edge server.
	KindHello Kind = "hello"
	// KindCensus reports a region's decision distribution to the cloud
	// (step ①).
	KindCensus Kind = "census"
	// KindRatio carries the optimized sharing ratio from the cloud to an
	// edge server (step ②).
	KindRatio Kind = "ratio"
	// KindPolicy forwards the policy to vehicles (step ③).
	KindPolicy Kind = "policy"
	// KindUpload carries a vehicle's shared sensor data to its edge server
	// (step ④).
	KindUpload Kind = "upload"
	// KindDelivery distributes collected sensor data back to a vehicle
	// (step ⑤).
	KindDelivery Kind = "delivery"
	// KindAck is a generic acknowledgement carrying an optional error.
	KindAck Kind = "ack"
	// KindLease renews an edge server's membership lease with the cloud
	// (answered with an Ack). Edges whose lease lapses are evicted from the
	// round-barrier quorum until they renew.
	KindLease Kind = "lease"
	// KindRatioCorrection re-announces the corrected sharing ratios of a
	// session's regions after the cloud's fixed-lag window rewinds and
	// re-folds completed rounds: one frame per session per rewind. Links
	// adopt corrections monotonically by Seq.
	KindRatioCorrection Kind = "ratio_correction"
	// KindCensusBatch carries many regions' censuses for one round in a
	// single frame (step ① batched): a shard coordinator forwarding its
	// region group to the aggregation tier, or an edge process multiplexing
	// several regions over one connection.
	KindCensusBatch Kind = "census_batch"
	// KindRatioBatch answers a census batch with each region's next sharing
	// ratio (step ② batched).
	KindRatioBatch Kind = "ratio_batch"
	// KindDigest is a gossip neighborhood's compacted escalation to the
	// control plane: every local consensus round the neighborhood folded
	// since its last acknowledged escalation, in round order. Answered with
	// a RatioBatch carrying the control plane's current ratios for the
	// neighborhood's members.
	KindDigest Kind = "digest"
	// KindHoodBeat is a gossip leader's liveness heartbeat to its
	// neighborhood peers (answered with an Ack). While beats for the current
	// leadership epoch keep arriving within their TTL, followers hold their
	// promotion timers; when the beats lapse every member deterministically
	// promotes the rendezvous-ring successor of the next epoch.
	KindHoodBeat Kind = "hood_beat"
)

// Message is the wire envelope: a kind and its typed payload. Nothing is
// serialized until a conn's Send encodes it.
type Message struct {
	Kind Kind
	// Body is the typed payload: the struct named after Kind (Hello, Census,
	// ... HoodBeat), by value or by pointer.
	//
	// On a received message Body is borrowed: it is valid until the next
	// Recv on the conn that returned it. Every conn decodes Ratio, Policy,
	// Upload, Delivery, Ack, Census, CensusBatch and Digest into bodies and
	// storage it reuses for the next frame, and Decode copies the struct but
	// not the slices inside it, so a receiver that keeps Items, Counts or a
	// census list past its next Recv copies them. RatioBatch and the
	// remaining kinds are always freshly allocated and may be kept.
	Body interface{}
}

// Hello registers a vehicle with an edge server.
type Hello struct {
	Vehicle int
}

// Census is an edge server's per-round decision report to the cloud:
// Counts[k] vehicles currently take decision k+1.
type Census struct {
	Edge   int
	Round  int
	Counts []int
}

// Ratio is the cloud's policy answer for one edge server.
type Ratio struct {
	Round int
	X     float64
}

// Policy is the policy forwarded from an edge server to its vehicles. In
// addition to the sharing ratio it carries the cell's anonymized decision
// census from the previous round, whose shares (edge.Shares) vehicles use
// to evaluate the expected fitness of each decision (the micro-level
// analogue of Eq. 4).
type Policy struct {
	Round int
	X     float64
	// Counts[k] is the number of vehicles that took decision k+1.
	Counts []int
}

// Item is one shared sensor datum: the owning vehicle and the modality.
// Payloads are abstract (the simulation exercises the policy mechanics, not
// perception itself). A sharer shares at most one item per modality a round,
// so (owner, round, modality) identifies an item.
type Item struct {
	Owner    int
	Modality sensor.Type
}

// Upload is a vehicle's step-④ message: its decision index (1-based) and
// the modalities it shares under that decision, one item each. Vehicle is
// not on the wire: an upload belongs to its session, and the edge sets
// Vehicle to the id the session registered.
type Upload struct {
	Vehicle  int
	Round    int
	Decision int
	Share    sensor.Mask
}

// AppendRun appends one sharer's run to dst: an item of owner for each
// modality in share, in rising bit order.
func AppendRun(dst []Item, owner int, share sensor.Mask) []Item {
	for t := sensor.Camera; t <= sensor.Radar; t <<= 1 {
		if share.Has(t) {
			dst = append(dst, Item{Owner: owner, Modality: t})
		}
	}
	return dst
}

// Delivery is the edge server's step-⑤ answer: the items the vehicle may
// access this exchange.
type Delivery struct {
	Round int
	Items []Item
}

// Ack acknowledges a message; Err is empty on success.
type Ack struct {
	Err string
}

// Lease is an edge server's membership heartbeat: while renewed within
// TTLMillis, the edge counts toward the cloud's round-barrier quorum; when
// the lease lapses the cloud evicts the edge instead of waiting out the
// round deadline, and re-admits it on the next renewal.
type Lease struct {
	Edge      int
	TTLMillis int64
}

// RatioCorrection supersedes previously published Ratios after a fixed-lag
// rewind: the cloud re-folded a completed round (and everything after it)
// with a late census, Round is its latest completed round, and X[i] is the
// corrected current ratio for region Edges[i]. One frame carries every region
// a session reports for — all of a shard's, or an edge's one — except the
// rewind's own submitters, so one frame is one rewind as that session sees
// it. Edges is strictly ascending (the wire delta-encodes it, and a set that
// is not is refused by both encoder and decoder). Seq totally orders rewinds;
// receivers must ignore any correction whose Seq is not greater than the last
// one adopted, which makes redelivery and reordering harmless.
type RatioCorrection struct {
	Round int
	Seq   int64
	Edges []int
	X     []float64
}

// CensusBatch is many regions' step-① censuses in one frame, all for the
// same Round. Shard identifies the submitting coordinator (informational —
// routing is by the censuses' Edge ids). Batching collapses a region group's
// per-round uploads into one frame and one reply, the wire-level win that
// lets a connection multiplex hundreds of regions.
type CensusBatch struct {
	Shard    int
	Round    int
	Censuses []Census
}

// RatioBatch is the step-② answer to a CensusBatch: X[i] is the next-round
// sharing ratio for region Edges[i]. Round is the batch's round + 1,
// mirroring the single-census Ratio convention (a late batch is answered
// with the regions' current ratios under the same Round). Answering a
// Digest, Acked is the neighborhood's durable watermark: every round of it
// below Acked is folded and durable on the control plane, and only those
// may the neighborhood drop (0 on a batch's answer).
type RatioBatch struct {
	Round int
	Edges []int
	X     []float64
	Acked int
}

// DigestRound is one locally folded gossip round inside a Digest: the full
// census set the neighborhood's fold ran over (each census carries the same
// Round) and whether the local barrier completed degraded. Replaying the
// rounds of a digest stream through the control plane's fold in order
// reproduces the neighborhood's local state bit-identically.
type DigestRound struct {
	Round    int
	Degraded bool
	Censuses []Census
}

// Digest is a gossip neighborhood's escalation frame (KindDigest): the
// neighborhood's identity within the deployment (index Neighborhood of Of,
// member regions Members) and the contiguous run of local rounds folded
// since the last acknowledged escalation. The control plane reconciles the
// rounds through its own fold — completing a round once every one of the Of
// neighborhoods has reported it — and answers with a RatioBatch of current
// ratios for Members and its acknowledged watermark. Digests are idempotent:
// a re-sent round the control plane already holds is skipped.
type Digest struct {
	Neighborhood int
	Of           int
	Members      []int
	Rounds       []DigestRound
}

// HoodBeat is a gossip leadership heartbeat (KindHoodBeat): Leader asserts
// it leads neighborhood Hood for leadership epoch Epoch, and promises the
// next beat within TTLMillis. Escalated is the leader's escalation
// watermark — the first local round not yet compacted into a
// cloud-acknowledged digest — which followers use to prune their own
// standby backlogs. Beats carrying an older epoch than the receiver's are
// acked but otherwise ignored; beats carrying a newer epoch demote a stale
// leader back to follower.
type HoodBeat struct {
	Hood      int
	Epoch     int
	Leader    int
	Escalated int
	TTLMillis int64
}

// Encode wraps a payload struct in a Message envelope. The payload is
// carried typed and serialized by the conn's Send, so the sender may reuse it
// once Send returns. The error is always nil; a body of the wrong type for
// kind is reported when the message is encoded or decoded.
func Encode(kind Kind, payload interface{}) (Message, error) {
	return Message{Kind: kind, Body: payload}, nil
}

// Decode copies m's payload into out, a pointer to the payload struct of
// kind. It fails when m is of another kind or its Body is not that struct
// (by value or by pointer).
func Decode(m Message, kind Kind, out interface{}) error {
	if m.Kind != kind {
		return fmt.Errorf("transport: expected %s message, got %s", kind, m.Kind)
	}
	switch dst := out.(type) {
	case *Hello:
		return bodyInto(m, dst)
	case *Census:
		return bodyInto(m, dst)
	case *Ratio:
		return bodyInto(m, dst)
	case *Policy:
		return bodyInto(m, dst)
	case *Upload:
		return bodyInto(m, dst)
	case *Delivery:
		return bodyInto(m, dst)
	case *Ack:
		return bodyInto(m, dst)
	case *Lease:
		return bodyInto(m, dst)
	case *RatioCorrection:
		return bodyInto(m, dst)
	case *CensusBatch:
		return bodyInto(m, dst)
	case *RatioBatch:
		return bodyInto(m, dst)
	case *Digest:
		return bodyInto(m, dst)
	case *HoodBeat:
		return bodyInto(m, dst)
	}
	// Not %T of out: formatting it would move every caller's target to the heap.
	return fmt.Errorf("transport: cannot decode a %s message into that body type", kind)
}

// typedBody returns m's payload as a T, copied out of a Body held by value
// or by pointer with no heap allocation.
func typedBody[T any](m Message) (T, error) {
	switch b := m.Body.(type) {
	case T:
		return b, nil
	case *T:
		return *b, nil
	}
	var zero T
	return zero, fmt.Errorf("transport: %s message body is %T, want %T", m.Kind, m.Body, zero)
}

// bodyInto is typedBody into *dst, which a failure leaves untouched.
func bodyInto[T any](m Message, dst *T) error {
	body, err := typedBody[T](m)
	if err == nil {
		*dst = body
	}
	return err
}
