package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sensor"
)

// allKindsMessages is one representative message per protocol kind, used to
// exercise the codec over every encode/decode path.
func allKindsMessages(t *testing.T) []Message {
	t.Helper()
	payloads := []struct {
		kind Kind
		body interface{}
	}{
		{KindHello, Hello{Vehicle: 42}},
		{KindCensus, Census{Edge: 1, Round: 3, Counts: []int{4, 2, 0}}},
		{KindRatio, Ratio{Round: 2, X: 0.5}},
		{KindPolicy, Policy{Round: 5, X: 0.75, Counts: []int{1, 2, 1}}},
		{KindUpload, Upload{Round: 5, Decision: 3, Share: sensor.MaskOf(sensor.LiDAR, sensor.Radar)}},
		{KindDelivery, Delivery{Round: 5, Items: []Item{{Owner: 9, Modality: sensor.Camera}}}},
		{KindAck, Ack{Err: "nope"}},
		{KindLease, Lease{Edge: 2, TTLMillis: 1500}},
		{KindRatioCorrection, RatioCorrection{Round: 7, Seq: 3, Edges: []int{0, 2, 700}, X: []float64{0.5, 0.25, 0.75}}},
		{KindCensusBatch, CensusBatch{Shard: 1, Round: 3, Censuses: []Census{
			{Edge: 0, Round: 3, Counts: []int{2, 1}},
			{Edge: 1, Round: 3, Counts: []int{0, 4}},
		}}},
		{KindRatioBatch, RatioBatch{Round: 4, Edges: []int{0, 1}, X: []float64{0.5, 0.25}}},
		{KindDigest, Digest{Neighborhood: 1, Of: 2, Members: []int{2, 3}, Rounds: []DigestRound{
			{Round: 6, Censuses: []Census{
				{Edge: 2, Round: 6, Counts: []int{3, 1}},
				{Edge: 3, Round: 6, Counts: []int{0, 5}},
			}},
			{Round: 7, Degraded: true, Censuses: []Census{
				{Edge: 2, Round: 7, Counts: []int{2, 2}},
			}},
		}}},
		{KindHoodBeat, HoodBeat{Hood: 1, Epoch: 2, Leader: 3, Escalated: 6, TTLMillis: 750}},
	}
	out := make([]Message, len(payloads))
	for i, p := range payloads {
		m, err := Encode(p.kind, p.body)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// warmedScratch returns the decode scratch of a conn that has already
// received every kind it decodes in place, each longer than anything the tables
// below decode — so a decode that kept a stale element, length or string
// from the frame before would show.
func warmedScratch(t testing.TB) *recvScratch {
	t.Helper()
	items := make([]Item, 80)
	for i := range items {
		items[i] = Item{Owner: 1000 + i, Modality: sensor.Camera}
	}
	s := new(recvScratch)
	for _, p := range []struct {
		kind Kind
		body interface{}
	}{
		{KindRatio, Ratio{Round: 99, X: 1}},
		{KindPolicy, Policy{Round: 99, X: 1, Counts: make([]int, 16)}},
		{KindUpload, Upload{Round: 99, Decision: 1, Share: sensor.MaskAll}},
		{KindDelivery, Delivery{Round: 99, Items: items}},
		{KindAck, Ack{Err: "a refusal left over from the frame before"}},
	} {
		m, err := Encode(p.kind, p.body)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Binary.AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeBinary(frame, s); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// binaryDecoders are the binary decoder's two entry points: Binary.Decode,
// whose bodies the caller owns, and a TCP conn's decode into scratch it has
// used before. They must accept, reject and produce exactly the same.
func binaryDecoders(t testing.TB) map[string]func([]byte) (Message, error) {
	scratch := warmedScratch(t)
	return map[string]func([]byte) (Message, error){
		"owned":   Binary.Decode,
		"scratch": func(frame []byte) (Message, error) { return decodeBinary(frame, scratch) },
	}
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	roundTrip := func(t *testing.T, decode func([]byte) (Message, error)) {
		for _, m := range allKindsMessages(t) {
			frame, err := Binary.AppendEncode(nil, m)
			if err != nil {
				t.Fatalf("%s: encode: %v", m.Kind, err)
			}
			got, err := decode(frame)
			if err != nil {
				t.Fatalf("%s: decode: %v", m.Kind, err)
			}
			if got.Kind != m.Kind {
				t.Fatalf("kind = %s, want %s", got.Kind, m.Kind)
			}
			// Compare via a second encode: byte equality is type equality
			// for the binary format.
			again, err := Binary.AppendEncode(nil, got)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", m.Kind, err)
			}
			if !bytes.Equal(frame, again) {
				t.Errorf("%s: re-encode differs:\n  %x\n  %x", m.Kind, frame, again)
			}
		}
	}
	t.Run("binary", func(t *testing.T) {
		for name, decode := range binaryDecoders(t) {
			t.Run(name, func(t *testing.T) { roundTrip(t, decode) })
		}
	})
}

// TestCodecRoundTripPayloads checks field-level fidelity through the
// decode-into-struct path (the one role handlers use).
func TestCodecRoundTripPayloads(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		in, err := Encode(KindUpload, Upload{Vehicle: -3, Round: 9, Decision: 4, Share: sensor.MaskOf(sensor.Camera)})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Binary.AppendEncode(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Binary.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		var up Upload
		if err := Decode(m, KindUpload, &up); err != nil {
			t.Fatal(err)
		}
		// The vehicle is not on the wire: the receiving edge knows it from
		// the session.
		if up != (Upload{Round: 9, Decision: 4, Share: sensor.MaskOf(sensor.Camera)}) {
			t.Errorf("round trip = %+v", up)
		}

		// A region-set correction: the delta-encoded edges come back as the
		// ids they were, each beside its own ratio.
		want := RatioCorrection{Round: 12, Seq: 1 << 40, Edges: []int{0, 1, 64, 1023}, X: []float64{0.125, 0.5, 1, 0}}
		frame, err = Binary.AppendEncode(nil, mustEncode(t, KindRatioCorrection, &want))
		if err != nil {
			t.Fatal(err)
		}
		if m, err = Binary.Decode(frame); err != nil {
			t.Fatal(err)
		}
		var rc RatioCorrection
		if err := Decode(m, KindRatioCorrection, &rc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rc, want) {
			t.Errorf("round trip = %+v, want %+v", rc, want)
		}

		// Items that are not one sharer's stretch — falling modalities, a
		// repeated one, owners interleaved — cross the wire as more runs and
		// come back exactly as they were sent.
		items := Delivery{Round: 3, Items: []Item{
			{Owner: 4, Modality: sensor.Camera},
			{Owner: 4, Modality: sensor.Radar},
			{Owner: 4, Modality: sensor.LiDAR},
			{Owner: 4, Modality: sensor.LiDAR},
			{Owner: 5, Modality: sensor.Camera},
			{Owner: 4, Modality: sensor.Radar},
		}}
		if frame, err = Binary.AppendEncode(nil, mustEncode(t, KindDelivery, &items)); err != nil {
			t.Fatal(err)
		}
		if runs := frame[2]; runs != 5 {
			t.Errorf("%d runs, want 5", runs)
		}
		if m, err = Binary.Decode(frame); err != nil {
			t.Fatal(err)
		}
		var del Delivery
		if err := Decode(m, KindDelivery, &del); err != nil || !reflect.DeepEqual(del, items) {
			t.Errorf("round trip = %+v (%v), want %+v", del, err, items)
		}
	})
}

// TestBinaryGoldenBytes pins the wire format byte-for-byte (the same
// examples appear in DESIGN.md §9); a change here is a wire protocol break.
func TestBinaryGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		body interface{}
		want []byte
	}{
		{
			name: "census",
			kind: KindCensus,
			body: Census{Edge: 1, Round: 3, Counts: []int{4, 2, 0}},
			want: []byte{0x02, 0x02, 0x06, 0x03, 0x08, 0x04, 0x00},
		},
		{
			name: "ratio",
			kind: KindRatio,
			body: Ratio{Round: 2, X: 0.5},
			want: []byte{0x03, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F},
		},
		{
			name: "lease",
			kind: KindLease,
			body: Lease{Edge: 2, TTLMillis: 1500},
			want: []byte{0x08, 0x04, 0xB8, 0x17},
		},
		{
			name: "ratio_correction",
			kind: KindRatioCorrection,
			body: RatioCorrection{Round: 7, Seq: 3, Edges: []int{2, 5, 6}, X: []float64{0.5, 0.5, 0.25}},
			want: []byte{0x17, 0x0E, 0x06, 0x03, 0x04, 0x06, 0x02, // edges 2, +3, +1
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, // 0.5 twice
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F}, // 0.25 once
		},
		{
			name: "census_batch",
			kind: KindCensusBatch,
			body: CensusBatch{Shard: 1, Round: 3, Censuses: []Census{
				{Edge: 0, Round: 3, Counts: []int{2, 1}},
				{Edge: 1, Round: 3, Counts: []int{0, 4}},
			}},
			// Each census takes the batch's round; edges are deltas.
			want: []byte{0x14, 0x02, 0x06, 0x02,
				0x00, 0x02, 0x04, 0x02,
				0x02, 0x02, 0x00, 0x08},
		},
		{
			name: "ratio_batch",
			kind: KindRatioBatch,
			body: RatioBatch{Round: 4, Edges: []int{3, 1, 2}, X: []float64{0.5, 0.5, 0.25}},
			want: []byte{0x15, 0x08, 0x03, 0x06, 0x03, 0x02, // edges 3, -2, +1
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, // 0.5 twice
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F}, // 0.25 once
		},
		{
			name: "ratio_batch answering a digest",
			kind: KindRatioBatch,
			body: RatioBatch{Round: 7, Edges: []int{2, 3}, X: []float64{0.5, 0.5}, Acked: 6},
			want: []byte{0x15, 0x0E, 0x02, 0x04, 0x02, // edges 2, +1
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, // 0.5 twice
				0x0C}, // acked 6
		},
		{
			name: "digest",
			kind: KindDigest,
			body: Digest{Neighborhood: 1, Of: 2, Members: []int{2, 3}, Rounds: []DigestRound{
				{Round: 6, Censuses: []Census{{Edge: 2, Round: 6, Counts: []int{3, 1}}}},
			}},
			want: []byte{0x16, 0x02, 0x04, 0x02, 0x04, 0x06,
				0x01, 0x0C, 0x00, 0x01, 0x04, 0x02, 0x06, 0x02},
		},
		{
			name: "hood_beat",
			kind: KindHoodBeat,
			body: HoodBeat{Hood: 1, Epoch: 2, Leader: 3, Escalated: 6, TTLMillis: 750},
			want: []byte{0x0D, 0x02, 0x04, 0x06, 0x0C, 0xDC, 0x0B},
		},
		{
			name: "policy",
			kind: KindPolicy,
			body: Policy{Round: 2, X: 0.5, Counts: []int{3, 0, 1}},
			want: []byte{0x0F, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,
				0x03, 0x06, 0x00, 0x02},
		},
		{
			name: "upload",
			kind: KindUpload,
			// Round 5, decision 3, mask LiDAR|Radar: the vehicle is the
			// session's, not the frame's.
			body: Upload{Vehicle: 7, Round: 5, Decision: 3, Share: sensor.MaskOf(sensor.LiDAR, sensor.Radar)},
			want: []byte{0x12, 0x0A, 0x06, 0x06},
		},
		{
			name: "delivery",
			kind: KindDelivery,
			body: Delivery{Round: 5, Items: []Item{
				{Owner: 9, Modality: sensor.Camera},
				{Owner: 9, Modality: sensor.LiDAR},
				{Owner: 12, Modality: sensor.Radar},
				{Owner: -1, Modality: sensor.Camera}, // the edge's own perception
				{Owner: -1, Modality: sensor.LiDAR},
				{Owner: -1, Modality: sensor.Radar},
			}},
			want: []byte{0x13, 0x0A, 0x03,
				0x12, 0x03, // owner 9, camera|lidar
				0x18, 0x04, // owner 12, radar
				0x01, 0x07}, // owner -1, all three
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := Encode(c.kind, c.body)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := Binary.AppendEncode(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, c.want) {
				t.Errorf("frame = %x, want %x", frame, c.want)
			}
		})
	}
}

// hardeningCase is one malformed frame the strict decoder must refuse.
type hardeningCase struct {
	name  string
	frame []byte
}

// hardeningCases is the table TestBinaryDecodeHardening runs and
// FuzzDecodeFrame seeds its corpus with.
func hardeningCases() []hardeningCase {
	ratio := func() []byte {
		m, _ := Encode(KindRatio, Ratio{Round: 2, X: 0.5})
		f, _ := Binary.AppendEncode(nil, m)
		return f
	}()
	f64 := []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F} // 0.5
	f64x2 := append(append([]byte{}, f64...), f64...)
	return []hardeningCase{
		{"empty frame", nil},
		{"unknown kind tag", []byte{0x7F, 0x01}},
		{"truncated varint", []byte{0x02, 0x80}},                                 // census, endless continuation bit
		{"truncated float", ratio[:len(ratio)-3]},                                // ratio missing float tail
		{"length exceeds remaining", []byte{0x02, 0x02, 0x06, 0xFF, 0xFF, 0x03}}, // census claiming ~65k counts
		{"trailing garbage", append(append([]byte{}, ratio...), 0xAA)},
		{"items length overflow", []byte{0x13, 0x0A, 0x80, 0x01, 0x12, 0x01}}, // 128 runs in two bytes
		{"truncated ratio_correction", []byte{0x17, 0x0E, 0x06, 0x01, 0x04, 0x01, 0x00, 0x00}},
		// The one-region frame this layout replaced, as TestBinaryGoldenBytes
		// pinned it until tag 14.
		{"ratio_correction retired tag 9", []byte{0x09, 0x04, 0x0E, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F}},
		{"ratio_correction count exceeds remaining", []byte{0x17, 0x0E, 0x06, 0x7F, 0x00}},
		// Two entries with one ratio run: the runs must cover the list.
		{"ratio_correction runs short of the entries", append([]byte{0x17, 0x0E, 0x06, 0x02, 0x04, 0x06, 0x01}, f64...)},
		{"ratio_correction duplicate edge", append([]byte{0x17, 0x0E, 0x06, 0x02, 0x04, 0x00, 0x02}, f64...)},
		{"ratio_correction unsorted edges", append([]byte{0x17, 0x0E, 0x06, 0x02, 0x04, 0x01, 0x02}, f64...)},
		{"ratio_correction negative first edge", append([]byte{0x17, 0x0E, 0x06, 0x01, 0x01, 0x01}, f64...)},
		// MaxInt64, then one more.
		{"ratio_correction edge overflows", append([]byte{0x17, 0x0E, 0x06, 0x02,
			0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0x02}, f64...)},
		{"ratio_correction trailing garbage", append(append([]byte{0x17, 0x0E, 0x06, 0x01, 0x04, 0x01}, f64...), 0xAA)},
		// Two neighbouring runs of one value: that is one run of two.
		{"ratio_correction runs alike side by side", append([]byte{0x17, 0x0E, 0x06, 0x02, 0x04, 0x02, 0x01}, append(append(append([]byte{}, f64...), 0x01), f64...)...)},
		{"census_batch length overflow", []byte{0x14, 0x02, 0x06, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"census_batch truncated census", []byte{0x14, 0x02, 0x06, 0x02, 0x00, 0x02, 0x04}},
		// The batch decoder carves every census's counts from one slab: the
		// shapes that steer it — K changing inside a list, empty censuses
		// between full ones, a K or a census count the frame cannot hold —
		// each end in a refusal here (TestBatchDecodeShapes has them intact).
		{"census_batch mixed K cut short", []byte{0x14, 0x02, 0x06, 0x03,
			0x00, 0x02, 0x02, 0x04, // edge 0: two counts
			0x02, 0x04, 0x02, 0x02, 0x02}}, // edge 1: four declared, three sent
		{"census_batch first K exceeds remaining", []byte{0x14, 0x02, 0x06, 0x02, 0x00, 0xFF, 0xFF, 0x03, 0x02, 0x04}},
		{"census_batch count far above the frame", []byte{0x14, 0x02, 0x06, 0xE8, 0x07, 0x00, 0x01, 0x02}},
		{"census_batch empty censuses between full ones, trailing garbage", []byte{0x14, 0x02, 0x06, 0x03,
			0x00, 0x02, 0x02, 0x04, 0x02, 0x00, 0x02, 0x02, 0x02, 0x02, 0xAA}},
		{"digest mixed K cut short", []byte{0x16, 0x02, 0x04, 0x00, 0x01, 0x0C, 0x00, 0x02,
			0x04, 0x01, 0x02, // edge 2: one count
			0x02, 0x03, 0x02, 0x02, 0x80}}, // edge 3: the third count never ends
		{"digest census count far above the frame", []byte{0x16, 0x02, 0x04, 0x00, 0x01, 0x0C, 0x00, 0x64, 0x04, 0x01, 0x02}},
		{"ratio_batch length exceeds remaining", []byte{0x15, 0x08, 0x7F, 0x00}},
		{"ratio_batch truncated float", []byte{0x15, 0x08, 0x01, 0x00, 0x01, 0x00, 0x00, 0xE0, 0x3F}},
		{"ratio_batch acked zero", []byte{0x15, 0x08, 0x00, 0x00}},
		{"digest members length overflow", []byte{0x16, 0x02, 0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"digest rounds length overflow", []byte{0x16, 0x02, 0x04, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"digest truncated round", []byte{0x16, 0x02, 0x04, 0x00, 0x01, 0x0C, 0x00}},
		{"digest census counts overflow", []byte{0x16, 0x02, 0x04, 0x00, 0x01, 0x0C, 0x00, 0x01, 0x04, 0xFF, 0xFF, 0x03}},
		{"digest trailing garbage", []byte{0x16, 0x02, 0x04, 0x00, 0x00, 0xAA}},
		// The tier-plane frames the list layouts replaced, each the golden
		// bytes of its day.
		{"census_batch retired tag 10", []byte{0x0A, 0x02, 0x06, 0x02,
			0x00, 0x06, 0x02, 0x04, 0x02, 0x02, 0x06, 0x02, 0x00, 0x08}},
		{"ratio_batch retired tag 11", append([]byte{0x0B, 0x08, 0x02, 0x00, 0x02}, f64x2...)},
		{"digest retired tag 12", []byte{0x0C, 0x02, 0x04, 0x02, 0x04, 0x06,
			0x01, 0x0C, 0x00, 0x01, 0x04, 0x0C, 0x02, 0x06, 0x02}},
		{"ratio_corrections retired tag 14", append([]byte{0x0E, 0x0E, 0x06, 0x02, 0x04, 0x06}, f64x2...)},
		{"hood_beat truncated", []byte{0x0D, 0x02, 0x04}},
		{"hood_beat trailing garbage", []byte{0x0D, 0x02, 0x04, 0x06, 0x0C, 0x00, 0xAA}},
		// The policy's census: three counts claimed, two bytes left.
		{"policy shares length exceeds remaining", append([]byte{0x0F, 0x0A}, append(make([]byte, 8), 0x03, 0x00, 0x00)...)},
		{"policy share cut short", append([]byte{0x0F, 0x0A}, append(make([]byte, 8), 0x01, 0x80)...)}, // count never ends
		{"policy trailing garbage", append([]byte{0x0F, 0x0A}, append(make([]byte, 8), 0x00, 0xAA)...)},
		{"upload truncated decision", []byte{0x12, 0x0A}},
		{"upload truncated item", []byte{0x12, 0x0A, 0x06}}, // the share mask never comes
		{"upload mask outside the sensor set", []byte{0x12, 0x0A, 0x06, 0x08}},
		{"upload mask with a high bit", []byte{0x12, 0x0A, 0x06, 0x87}},
		{"upload trailing garbage", []byte{0x12, 0x0A, 0x06, 0x06, 0xAA}},
		{"delivery items length overflow", []byte{0x13, 0x0A, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"delivery trailing garbage", []byte{0x13, 0x0A, 0x00, 0xAA}},
		// The vehicle-plane frames the run layouts replaced, each well formed
		// as the golden bytes of its day.
		{"policy retired tag 4", append([]byte{0x04, 0x0A, 0x01}, f64...)},
		{"upload retired tag 5", []byte{0x05, 0x0E, 0x0A, 0x06, 0x01, 0x0E, 0x04, 0x02}},
		{"delivery retired tag 6", []byte{0x06, 0x0A, 0x01, 0x12, 0x02, 0x06}},
		{"upload retired tag 16", []byte{0x10, 0x0E, 0x0A, 0x06, 0x01, 0x0E, 0x02, 0x06}},
		{"delivery retired tag 17", []byte{0x11, 0x0A, 0x03, 0x12, 0x06, 0x03, 0x18, 0x0E, 0x04, 0x01, 0x04, 0x07}},
		{"delivery run mask 0", []byte{0x13, 0x0A, 0x01, 0x12, 0x00}},
		{"delivery run unknown modality bit", []byte{0x13, 0x0A, 0x01, 0x12, 0x09}},
		// Three runs claimed with four bytes left: a run is at least two.
		{"delivery run count exceeds remaining", []byte{0x13, 0x0A, 0x03, 0x12, 0x01, 0x14, 0x02}},
		{"delivery truncated run", []byte{0x13, 0x0A, 0x01, 0x12}},
		{"ack text length exceeds remaining", []byte{0x07, 0x05, 'n', 'o'}},
		{"ack trailing garbage", []byte{0x07, 0x00, 0xAA}},
	}
}

func TestBinaryDecodeHardening(t *testing.T) {
	cases := hardeningCases()
	decoders := binaryDecoders(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for name, decode := range decoders {
				if _, err := decode(c.frame); err == nil {
					t.Errorf("%s: Decode(%x) succeeded, want error", name, c.frame)
				}
			}
		})
	}
}

// TestEncodeRejectsMalformedCorrection: a region set the decoder would refuse
// never reaches the wire.
func TestEncodeRejectsMalformedCorrection(t *testing.T) {
	for name, rc := range map[string]RatioCorrection{
		"more edges than ratios": {Edges: []int{1, 2}, X: []float64{0.5}},
		"more ratios than edges": {Edges: []int{1}, X: []float64{0.5, 0.5}},
		"unsorted":               {Edges: []int{2, 1}, X: []float64{0.5, 0.5}},
		"duplicate":              {Edges: []int{1, 1}, X: []float64{0.5, 0.5}},
		"negative":               {Edges: []int{-1, 1}, X: []float64{0.5, 0.5}},
	} {
		if frame, err := Binary.AppendEncode(nil, mustEncode(t, KindRatioCorrection, rc)); err == nil {
			t.Errorf("%s: encoded to %x, want an error", name, frame)
		}
	}
}

// TestListCensusTakesItsListsRound: a census in a census_batch or a digest
// round crosses the wire without a round of its own, so one whose struct
// holds a stray round — its storage reused for a later round, say — encodes
// to the same bytes as it would with its list's round, and decodes in that
// round.
func TestListCensusTakesItsListsRound(t *testing.T) {
	stray := func(round int) []Census {
		cs := mixedCensuses(round)
		for i := range cs {
			cs[i].Round = round + 4 + i
		}
		return cs
	}
	cases := []struct {
		kind       Kind
		sent, want interface{}
	}{
		{KindCensusBatch, CensusBatch{Shard: 1, Round: 3, Censuses: stray(3)}, mixedBatch()},
		{KindDigest, Digest{Neighborhood: 1, Of: 2, Members: []int{2, 3}, Rounds: []DigestRound{
			{Round: 6, Censuses: stray(6)},
			{Round: 7, Degraded: true, Censuses: stray(7)},
		}}, mixedDigest()},
	}
	for _, c := range cases {
		frame := encodeFrameOf(t, c.kind, c.sent)
		if want := encodeFrameOf(t, c.kind, c.want); !bytes.Equal(frame, want) {
			t.Errorf("%s with stray census rounds encodes to %x, want %x", c.kind, frame, want)
		}
		for name, decode := range binaryDecoders(t) {
			m, err := decode(frame)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, c.kind, err)
			}
			var got interface{}
			switch b := m.Body.(type) {
			case *CensusBatch:
				got = *b
			case *Digest:
				got = *b
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: %s decoded to\n%+v\nwant\n%+v", name, c.kind, got, c.want)
			}
		}
	}
}

// TestEncodeRejectsMultiModalityItem: an item is one sensor type, so a run's
// mask bit per item can carry it, and an upload shares a subset of the sensor
// set; anything else never reaches the wire.
func TestEncodeRejectsMultiModalityItem(t *testing.T) {
	for _, mod := range []sensor.Type{0, sensor.Camera | sensor.Radar, 8} {
		del := Delivery{Items: []Item{{Owner: 7, Modality: mod}}}
		if frame, err := Binary.AppendEncode(nil, mustEncode(t, KindDelivery, del)); err == nil {
			t.Errorf("modality %v: encoded to %x, want an error", mod, frame)
		}
	}
	up := Upload{Share: sensor.MaskAll | 8}
	if frame, err := Binary.AppendEncode(nil, mustEncode(t, KindUpload, up)); err == nil {
		t.Errorf("share %v: encoded to %x, want an error", up.Share, frame)
	}
}

// TestVehiclePlaneFrameSizes pins the three frames of a vehicle-round in a
// paper-lattice (K=8) cell of 16 vehicles, about two thousand rounds in: the
// policy, a 3-item upload, and a delivery of the 15 others' items and the
// edge's own perception, each sharer one run.
func TestVehiclePlaneFrameSizes(t *testing.T) {
	const round = 1850
	counts := []int{9, 1, 2, 0, 3, 0, 0, 1}
	up := Upload{Vehicle: 241, Round: round, Decision: 1, Share: sensor.MaskAll}
	del := Delivery{Round: round}
	for v := 242; v <= 256; v++ {
		del.Items = AppendRun(del.Items, v, sensor.MaskAll)
	}
	del.Items = AppendRun(del.Items, -1, sensor.MaskAll) // the edge's own perception
	for _, c := range []struct {
		m    Message
		want int
	}{
		{mustEncode(t, KindPolicy, Policy{Round: round, X: 0.7125, Counts: counts}), 20},
		{mustEncode(t, KindUpload, up), 5},
		{mustEncode(t, KindDelivery, del), 51},
	} {
		frame, err := Binary.AppendEncode(nil, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != c.want {
			t.Errorf("%s: %d bytes, want %d", c.m.Kind, len(frame), c.want)
		}
	}
}

// TestCodecPipe: the in-process pipe delivers what the Binary codec encoded
// at Send, so a sender that overwrites the body once Send returns changes
// nothing the receiver reads.
func TestCodecPipe(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		items := []Item{{Owner: 1, Modality: sensor.Camera}, {Owner: 1, Modality: sensor.Radar}}
		sent := mustEncode(t, KindDelivery, Delivery{Round: 4, Items: items})
		want, _ := Binary.AppendEncode(nil, sent) // an encode error fails the Send below
		if err := a.Send(sent); err != nil {
			t.Fatal(err)
		}
		items[0].Owner, items[1] = 99, Item{}
		got, err := b.Recv()
		if frame, _ := Binary.AppendEncode(nil, got); err != nil || !bytes.Equal(frame, want) {
			t.Errorf("the pipe delivered a message encoding to %x (%v), want the frame sent, %x", frame, err, want)
		}
	})
}

func TestPipeOversizeFrameRejected(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	m, err := Encode(KindAck, Ack{Err: strings.Repeat("x", MaxFrameBytes+1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame = %v, want ErrFrameTooLarge", err)
	}
}

// acceptOne returns a listener's next accepted conn via channel.
func acceptOne(t *testing.T, l Listener) <-chan Conn {
	t.Helper()
	ch := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	return ch
}

// TestTCPCodecNegotiation: a dialer declares the binary version ahead of its
// first frame, and an acceptor that reads the declaration exchanges frames
// with it.
func TestTCPCodecNegotiation(t *testing.T) {
	t.Run("default dialer declares binary", func(t *testing.T) {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		client, err := DialTCP(raw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		hello := mustEncode(t, KindHello, Hello{Vehicle: 42})
		if err := client.Send(hello); err != nil {
			t.Fatal(err)
		}
		peer, err := raw.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		want := append([]byte{codecMagic, VersionBinary}, framed(t, hello)...)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("dialer opened with %x, want %x", got, want)
		}
	})
	t.Run("binary both", func(t *testing.T) {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := acceptOne(t, l)
		client, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		server := <-accepted
		if server == nil {
			t.Fatal("accept failed")
		}
		exerciseConnPair(t, client, server)
	})
}

// TestTCPRejectsUndeclaredPeer: a peer that sends a well-formed frame without
// first declaring the binary version — no preamble at all, or the retired
// version 1 — is refused with ErrCodecVersion and hung up on; the frame is
// never delivered, and the refusal stays on the conn.
func TestTCPRejectsUndeclaredPeer(t *testing.T) {
	hello := framed(t, mustEncode(t, KindHello, Hello{Vehicle: 42}))
	for _, c := range []struct {
		name     string
		preamble []byte
	}{
		{"no preamble", nil},
		{"retired version 1", []byte{codecMagic, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := acceptOne(t, l)
			raw, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Write(append(append([]byte(nil), c.preamble...), hello...)); err != nil {
				t.Fatal(err)
			}
			server := <-accepted
			if server == nil {
				t.Fatal("accept failed")
			}
			defer server.Close()
			for i := 0; i < 2; i++ {
				if m, err := server.Recv(); !errors.Is(err, ErrCodecVersion) {
					t.Errorf("Recv %d = %v, %v, want ErrCodecVersion", i, m.Kind, err)
				}
			}
			if err := server.Send(mustEncode(t, KindAck, Ack{})); !errors.Is(err, ErrCodecVersion) {
				t.Errorf("Send on a refused conn = %v, want ErrCodecVersion", err)
			}
			// The acceptor closed the socket: the peer's read ends without a
			// byte of reply instead of waiting out the deadline.
			_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			var ne net.Error
			if n, err := raw.Read(make([]byte, 1)); n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Errorf("peer read %d bytes, err %v, want the conn closed", n, err)
			}
		})
	}
}

// TestTCPRecvHardening drives the acceptor's frame reader with crafted raw
// byte streams.
func TestTCPRecvHardening(t *testing.T) {
	declared := func(b ...byte) []byte { return append([]byte{codecMagic, VersionBinary}, b...) }
	oversize := func() []byte {
		var h [4]byte
		binary.BigEndian.PutUint32(h[:], MaxFrameBytes+1)
		return declared(h[:]...)
	}()
	truncatedBody := func() []byte {
		var h [4]byte
		binary.BigEndian.PutUint32(h[:], 100)
		return declared(append(h[:], []byte("only ten b")...)...)
	}()
	badBinaryFrame := func() []byte {
		body := []byte{0x7F, 0x01} // unknown kind tag under the binary codec
		var h [4]byte
		binary.BigEndian.PutUint32(h[:], uint32(len(body)))
		return declared(append(h[:], body...)...)
	}()
	cases := []struct {
		name    string
		raw     []byte
		wantEOF bool // truncated-at-boundary closes read as EOF
		wantErr error
	}{
		{"truncated preamble", []byte{codecMagic}, true, nil},
		{"truncated header", declared(0x00, 0x00), true, nil},
		{"oversized frame", oversize, false, ErrFrameTooLarge},
		{"truncated body", truncatedBody, false, nil},
		{"unknown codec version", []byte{codecMagic, 0x7F}, false, ErrCodecVersion},
		{"unknown binary kind tag", badBinaryFrame, false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := acceptOne(t, l)
			raw, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(c.raw); err != nil {
				t.Fatal(err)
			}
			_ = raw.Close() // writer done: reader must fail, not block
			server := <-accepted
			if server == nil {
				t.Fatal("accept failed")
			}
			defer server.Close()
			_, err = server.Recv()
			switch {
			case c.wantEOF:
				if !errors.Is(err, io.EOF) {
					t.Errorf("Recv = %v, want io.EOF", err)
				}
			case c.wantErr != nil:
				if !errors.Is(err, c.wantErr) {
					t.Errorf("Recv = %v, want %v", err, c.wantErr)
				}
			default:
				if err == nil || errors.Is(err, io.EOF) {
					t.Errorf("Recv = %v, want a decode error", err)
				}
			}
		})
	}
}

// TestTCPConcurrentSendersNegotiateOnce: the lazy handshake must be safe
// when many goroutines race the first Send.
func TestTCPConcurrentSendersNegotiateOnce(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := acceptOne(t, l)
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _ := Encode(KindRatio, Ratio{Round: i, X: 0.5})
			if err := client.Send(m); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	seen := 0
	for seen < n {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("recv after %d: %v", seen, err)
		}
		if m.Kind != KindRatio {
			t.Fatalf("kind = %s", m.Kind)
		}
		seen++
	}
	wg.Wait()
}

func FuzzDecodeFrame(f *testing.F) {
	// Seed with every valid frame plus the hardening cases.
	var seeds [][]byte
	payloads := []struct {
		kind Kind
		body interface{}
	}{
		{KindHello, Hello{Vehicle: 42}},
		{KindCensus, Census{Edge: 1, Round: 3, Counts: []int{4, 2, 0}}},
		{KindRatio, Ratio{Round: 2, X: 0.5}},
		{KindPolicy, Policy{Round: 5, X: 0.75, Counts: []int{1, 2, 1}}},
		{KindUpload, Upload{Round: 5, Decision: 3, Share: sensor.MaskOf(sensor.LiDAR)}},
		{KindUpload, Upload{Round: 5, Decision: 8}}, // a vehicle that shares nothing
		{KindDelivery, Delivery{Round: 5, Items: []Item{{Owner: 9, Modality: sensor.Camera}}}},
		{KindAck, Ack{Err: "nope"}},
		{KindCensusBatch, CensusBatch{Shard: 1, Round: 3, Censuses: []Census{{Edge: 0, Round: 3, Counts: []int{2, 1}}}}},
		{KindRatioBatch, RatioBatch{Round: 4, Edges: []int{0, 1}, X: []float64{0.5, 0.25}}},
		{KindLease, Lease{Edge: 2, TTLMillis: 1500}},
		{KindRatioCorrection, RatioCorrection{Round: 7, Seq: 3, Edges: []int{2, 5}, X: []float64{0.5, 0.25}}},
		{KindDigest, Digest{Neighborhood: 1, Of: 2, Members: []int{2, 3}, Rounds: []DigestRound{
			{Round: 6, Censuses: []Census{{Edge: 2, Round: 6, Counts: []int{3, 1}}}},
			{Round: 7, Degraded: true, Censuses: []Census{{Edge: 3, Round: 7, Counts: []int{0, 5}}}},
		}}},
		{KindHoodBeat, HoodBeat{Hood: 1, Epoch: 2, Leader: 3, Escalated: 6, TTLMillis: 750}},
		{KindCensusBatch, mixedBatch()},
		{KindDigest, mixedDigest()},
		{KindDelivery, Delivery{Round: 5, Items: []Item{
			{Owner: 9, Modality: sensor.Camera},
			{Owner: 9, Modality: sensor.Radar},
			{Owner: 12, Modality: sensor.LiDAR},
			{Owner: -1, Modality: sensor.Camera}, // the edge's own perception
			{Owner: -1, Modality: sensor.LiDAR},
		}}},
		// Sharers whose owners take one and two varint bytes, then the edge
		// (owner -1) with its own perception.
		{KindDelivery, Delivery{Round: 1850, Items: AppendRun(AppendRun(AppendRun(nil,
			63, sensor.MaskOf(sensor.Camera)), 64, sensor.MaskAll), -1, sensor.MaskOf(sensor.LiDAR, sensor.Radar))}},
		{KindPolicy, Policy{Round: 0, X: 0.5, Counts: make([]int, 8)}},
		// A flood's reply: 512 regions sharing one ratio, one run.
		{KindRatioBatch, func() RatioBatch {
			rb := RatioBatch{Round: 9, Edges: make([]int, 512), X: make([]float64, 512)}
			for i := range rb.Edges {
				rb.Edges[i], rb.X[i] = 512+i, 1
			}
			return rb
		}()},
		{KindRatioCorrection, RatioCorrection{Round: 8, Seq: 2, Edges: []int{0, 1, 2, 5, 9, 10},
			X: []float64{1, 1, 0.5, 1, 1, 1}}},
		// Descending edges: every delta after the first is negative.
		{KindCensusBatch, CensusBatch{Shard: 2, Round: 40, Censuses: []Census{
			{Edge: 9, Counts: []int{1, 2}}, {Edge: 7, Counts: []int{3, 0}}, {Edge: 3}, {Edge: 0, Counts: []int{0, 1}},
		}}},
		{KindDigest, Digest{Neighborhood: 0, Of: 3, Members: []int{0, 3, 6}, Rounds: []DigestRound{
			{Round: 11, Censuses: []Census{{Edge: 0, Counts: []int{4}}, {Edge: 3, Counts: []int{2}}, {Edge: 6, Counts: []int{1}}}},
			{Round: 12, Degraded: true, Censuses: []Census{{Edge: 6, Counts: []int{3}}, {Edge: 0, Counts: []int{5}}}},
		}}},
	}
	for _, p := range payloads {
		m, err := Encode(p.kind, p.body)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := Binary.AppendEncode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	for _, c := range hardeningCases() {
		seeds = append(seeds, c.frame)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	scratch := warmedScratch(f) // as on a conn: dirtied by every frame before
	f.Fuzz(func(t *testing.T, frame []byte) {
		// Decoding arbitrary bytes must never panic or over-allocate; a
		// frame that decodes must re-encode deterministically.
		m, err := Binary.Decode(frame)
		viaScratch, scratchErr := decodeBinary(frame, scratch)
		if (err == nil) != (scratchErr == nil) {
			t.Fatalf("frame %x: Decode = %v, decode into scratch = %v", frame, err, scratchErr)
		}
		if err == nil {
			owned, err := Binary.AppendEncode(nil, m)
			if err != nil {
				t.Fatalf("decoded frame %x failed to re-encode: %v", frame, err)
			}
			borrowed, err := Binary.AppendEncode(nil, viaScratch)
			if err != nil || !bytes.Equal(owned, borrowed) {
				t.Fatalf("frame %x: scratch decode re-encodes to %x (%v), owned decode to %x", frame, borrowed, err, owned)
			}
		}
		if err == nil {
			again, err := Binary.AppendEncode(nil, m)
			if err != nil {
				t.Fatalf("decoded frame %x failed to re-encode: %v", frame, err)
			}
			back, err := Binary.Decode(again)
			if err != nil {
				t.Fatalf("re-encoded frame %x failed to decode: %v", again, err)
			}
			if back.Kind != m.Kind {
				t.Fatalf("kind drift: %s -> %s", m.Kind, back.Kind)
			}
		}
	})
}
