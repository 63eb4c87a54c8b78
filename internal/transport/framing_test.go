package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sensor"
)

// countingNetConn counts the Reads a tcpConn issues on its net.Conn.
type countingNetConn struct {
	net.Conn
	reads atomic.Int32
}

func (c *countingNetConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// pipeConn returns the accepting side of a framed conn over net.Pipe and the
// raw peer end. net.Pipe hands each Write to the reader as written — nothing
// is coalesced, and a Write is split only where the reader's buffer ends — so
// every raw Write below is one TCP segment arriving on its own.
func pipeConn(t *testing.T, opts ...TCPOption) (Conn, *countingNetConn, net.Conn) {
	t.Helper()
	raw, srv := net.Pipe()
	counted := &countingNetConn{Conn: srv}
	conn := NewTCPConn(counted, opts...)
	t.Cleanup(func() {
		_ = conn.Close()
		_ = raw.Close()
	})
	return conn, counted, raw
}

// writeSegments writes each non-empty segment with its own Write and reports
// the first failure; the pipe is synchronous, so it runs beside the reader.
func writeSegments(raw net.Conn, segments ...[]byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		for _, seg := range segments {
			if len(seg) == 0 {
				continue
			}
			if _, err := raw.Write(seg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

func framed(t *testing.T, m Message) []byte {
	t.Helper()
	body, err := Binary.AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(body)))
	return append(header[:], body...)
}

func mustEncode(t *testing.T, kind Kind, body interface{}) Message {
	t.Helper()
	m, err := Encode(kind, body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameMessage compares two messages by their binary encoding, which is
// byte-for-byte determined by kind and field values whether the body is held
// by value or by pointer.
func sameMessage(t *testing.T, got, want Message) {
	t.Helper()
	g, err := Binary.AppendEncode(nil, got)
	if err != nil {
		t.Fatalf("re-encoding received %s: %v", got.Kind, err)
	}
	w, err := Binary.AppendEncode(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("received %s = %x, want %x", got.Kind, g, w)
	}
}

// vehiclePlaneMessages are the four per-vehicle-round frames at the sizes the
// fleet sends them: a K=9 policy, a 3-item upload, a 60-item delivery (the
// only one that leaves less than half the read buffer free) and an empty ack.
func vehiclePlaneMessages(t *testing.T) []Message {
	t.Helper()
	shares := make([]float64, 9)
	for i := range shares {
		shares[i] = float64(i+1) / 45
	}
	upload := Upload{Vehicle: 17, Round: 117, Decision: 1}
	for i, mod := range sensor.AllTypes() {
		upload.Items = append(upload.Items, Item{Owner: 17, Modality: mod, Seq: 350 + i})
	}
	delivery := Delivery{Round: 117}
	for i := 0; i < 60; i++ {
		delivery.Items = append(delivery.Items, Item{Owner: 1 + i/3, Modality: sensor.AllTypes()[i%3], Seq: 300 + i})
	}
	return []Message{
		mustEncode(t, KindPolicy, &Policy{Round: 117, X: 0.7125, Shares: shares}),
		mustEncode(t, KindUpload, &upload),
		mustEncode(t, KindDelivery, &delivery),
		mustEncode(t, KindAck, &Ack{}),
	}
}

// TestRecvSplitAtEveryOffset cuts a stream of frames into two segments at
// every byte offset — inside the preamble, inside each header, inside each
// body — and, separately, delivers it a byte at a time.
func TestRecvSplitAtEveryOffset(t *testing.T) {
	msgs := vehiclePlaneMessages(t)
	t.Run("binary", func(t *testing.T) {
		stream := []byte{codecMagic, VersionBinary}
		for _, m := range msgs {
			stream = append(stream, framed(t, m)...)
		}
		recvAll := func(t *testing.T, segments ...[]byte) {
			t.Helper()
			conn, _, raw := pipeConn(t)
			written := writeSegments(raw, segments...)
			for i, want := range msgs {
				got, err := conn.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				sameMessage(t, got, want)
			}
			if err := <-written; err != nil {
				t.Fatal(err)
			}
			_ = raw.Close()
			if _, err := conn.Recv(); !errors.Is(err, io.EOF) {
				t.Errorf("Recv after the peer closed = %v, want io.EOF", err)
			}
		}
		for cut := 1; cut < len(stream); cut++ {
			recvAll(t, stream[:cut], stream[cut:])
		}
		bytewise := make([][]byte, len(stream))
		for i := range stream {
			bytewise[i] = stream[i : i+1]
		}
		recvAll(t, bytewise...)
	})
}

// TestRecvOneReadPerSegment: however many frames a segment carries, header
// and body of all of them come out of the one Read that brought the segment
// in — the preamble included when it travels with the first frame.
func TestRecvOneReadPerSegment(t *testing.T) {
	msgs := vehiclePlaneMessages(t)
	policy, upload, ack := msgs[0], msgs[1], msgs[3]
	for _, frames := range [][]Message{{upload}, {policy, ack}, {policy, upload, ack}} {
		conn, counted, raw := pipeConn(t)
		segment := []byte{codecMagic, VersionBinary}
		for _, m := range frames {
			segment = append(segment, framed(t, m)...)
		}
		if len(segment) > recvBufBytes {
			t.Fatalf("segment of %d bytes does not fit the read buffer", len(segment))
		}
		written := writeSegments(raw, segment)
		for _, want := range frames {
			got, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			sameMessage(t, got, want)
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
		if n := counted.reads.Load(); n != 1 {
			t.Errorf("%d frames in one segment took %d reads, want 1", len(frames), n)
		}
	}
}

// TestRecvLargeFrameTakesDirectPath: a body larger than the read buffer is
// read straight into a frame buffer — the part that came with its header
// first — and consumes exactly its own bytes, so the frame queued behind it
// in the same segment is still whole.
func TestRecvLargeFrameTakesDirectPath(t *testing.T) {
	batch := CensusBatch{Shard: 1, Round: 9}
	for e := 0; e < 200; e++ {
		batch.Censuses = append(batch.Censuses, Census{Edge: e, Round: 9, Counts: []int{e, 1, 2, 3, 4, 5, 6, 7, 8}})
	}
	big := mustEncode(t, KindCensusBatch, batch)
	small := vehiclePlaneMessages(t)[1]
	bigFrame := framed(t, big)
	if len(bigFrame) <= 2*recvBufBytes {
		t.Fatalf("batch frame of %d bytes is too small for this test", len(bigFrame))
	}
	stream := append([]byte{codecMagic, VersionBinary}, bigFrame...)
	stream = append(stream, framed(t, small)...)
	stream = append(stream, bigFrame...)

	for _, cut := range []int{0, 2 + 4, 2 + 4 + 100, 2 + recvBufBytes, 2 + len(bigFrame) - 1, 2 + len(bigFrame) + 2} {
		conn, _, raw := pipeConn(t)
		written := writeSegments(raw, stream[:cut], stream[cut:])
		for i, want := range []Message{big, small, big} {
			got, err := conn.Recv()
			if err != nil {
				t.Fatalf("cut %d frame %d: %v", cut, i, err)
			}
			sameMessage(t, got, want)
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecvTimeoutMidBody: a peer that stalls after the header and part of the
// body trips the per-Recv deadline, on the buffered path and on the direct
// path alike, and the error still wraps ErrTimeout.
func TestRecvTimeoutMidBody(t *testing.T) {
	for _, size := range []int{100, 4 * recvBufBytes} {
		conn, _, raw := pipeConn(t, WithTimeout(50*time.Millisecond))
		var header [4]byte
		binary.BigEndian.PutUint32(header[:], uint32(size))
		segment := append([]byte{codecMagic, VersionBinary}, header[:]...)
		segment = append(segment, make([]byte, size/2)...)
		written := writeSegments(raw, segment)
		_, err := conn.Recv()
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("body of %d bytes stalled half way: Recv = %v, want ErrTimeout", size, err)
		}
		if !IsConnError(err) {
			t.Errorf("a Recv timeout must classify as a connection error: %v", err)
		}
		_ = conn.Close()
		<-written
	}
}

// TestRecvOversizeRefusedAtHeader: a length prefix over MaxFrameBytes is
// refused as soon as the header is in — the peer here sends nothing after it,
// so a Recv that tried to buffer the body first would never return.
func TestRecvOversizeRefusedAtHeader(t *testing.T) {
	conn, _, raw := pipeConn(t)
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], MaxFrameBytes+1)
	written := writeSegments(raw, append([]byte{codecMagic, VersionBinary}, header[:]...))
	got := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("Recv = %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv waited for the body of an oversized frame")
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
}

// TestRecvTruncatedBody: a peer that hangs up inside a body is a broken
// stream, not a clean close, whichever path the body takes and whether or not
// some of it had arrived.
func TestRecvTruncatedBody(t *testing.T) {
	for _, c := range []struct{ size, sent int }{
		{100, 0}, {100, 10}, {4 * recvBufBytes, 0}, {4 * recvBufBytes, 10}, {4 * recvBufBytes, 3 * recvBufBytes},
	} {
		conn, _, raw := pipeConn(t)
		var header [4]byte
		binary.BigEndian.PutUint32(header[:], uint32(c.size))
		segment := append([]byte{codecMagic, VersionBinary}, header[:]...)
		segment = append(segment, make([]byte, c.sent)...)
		go func() {
			_, _ = raw.Write(segment)
			_ = raw.Close()
		}()
		// With no body byte at all the error wraps io.EOF, as it always has.
		if _, err := conn.Recv(); err == nil || (c.sent > 0 && errors.Is(err, io.EOF)) {
			t.Errorf("%d of %d body bytes then close: Recv = %v, want a stream error", c.sent, c.size, err)
		}
	}
}

// TestRecvBorrowedAndOwnedBodies pins the lifetime rule of Message.Body on a
// TCP conn from both sides: the four per-vehicle-round kinds come back
// in bodies the next Recv of that kind overwrites, and the kinds whose
// consumers keep slices across rounds come back freshly allocated.
func TestRecvBorrowedAndOwnedBodies(t *testing.T) {
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
	send := func(kind Kind, body interface{}) {
		t.Helper()
		if err := client.Send(mustEncode(t, kind, body)); err != nil {
			t.Fatal(err)
		}
	}
	send(KindHello, Hello{Vehicle: 1}) // carries the codec declaration
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()
	recv := func(kind Kind, out interface{}) {
		t.Helper()
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(m, kind, out); err != nil {
			t.Fatal(err)
		}
	}
	var hello Hello
	recv(KindHello, &hello)

	// Borrowed: the second, shorter upload lands in the first one's array.
	send(KindUpload, Upload{Vehicle: 1, Round: 4, Decision: 1, Items: []Item{
		{Owner: 1, Modality: sensor.Camera, Seq: 10}, {Owner: 1, Modality: sensor.Radar, Seq: 11},
	}})
	send(KindUpload, Upload{Vehicle: 2, Round: 4, Decision: 7, Items: []Item{{Owner: 2, Modality: sensor.Radar, Seq: 20}}})
	var first, second Upload
	recv(KindUpload, &first)
	kept := append([]Item(nil), first.Items...)
	recv(KindUpload, &second)
	if &first.Items[0] != &second.Items[0] {
		t.Error("two uploads on one conn decoded into different arrays: the scratch is not reused")
	}
	if first.Items[0] == kept[0] {
		t.Error("the first upload's items survived the next Recv; this test no longer shows why receivers copy")
	}
	if kept[0].Seq != 10 || kept[1].Seq != 11 {
		t.Errorf("the copy taken before the next Recv changed: %+v", kept)
	}

	// Owned: census counts, batch censuses and ratio-batch slices are held
	// across rounds by the engine barrier and the links.
	send(KindCensus, Census{Edge: 1, Round: 4, Counts: []int{1, 2, 3}})
	send(KindCensus, Census{Edge: 2, Round: 4, Counts: []int{7, 8, 9}})
	var c1, c2 Census
	recv(KindCensus, &c1)
	recv(KindCensus, &c2)
	if c1.Counts[0] != 1 || c2.Counts[0] != 7 {
		t.Errorf("census counts must be owned by the receiver: %v then %v", c1.Counts, c2.Counts)
	}
	send(KindRatioBatch, RatioBatch{Round: 5, Edges: []int{1, 2}, X: []float64{0.25, 0.5}})
	send(KindRatioBatch, RatioBatch{Round: 5, Edges: []int{3, 4}, X: []float64{0.75, 1}})
	var r1, r2 RatioBatch
	recv(KindRatioBatch, &r1)
	recv(KindRatioBatch, &r2)
	if r1.Edges[0] != 1 || r1.X[1] != 0.5 || r2.Edges[0] != 3 {
		t.Errorf("ratio-batch slices must be owned by the receiver: %+v then %+v", r1, r2)
	}
}
