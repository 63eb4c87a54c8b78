package transport

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sensor"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	up := Upload{
		Vehicle:  7,
		Round:    3,
		Decision: 4,
		Share:    sensor.MaskOf(sensor.LiDAR, sensor.Radar),
	}
	m, err := Encode(KindUpload, up)
	if err != nil {
		t.Fatal(err)
	}
	var got Upload
	if err := Decode(m, KindUpload, &got); err != nil {
		t.Fatal(err)
	}
	if got != up {
		t.Errorf("round trip = %+v", got)
	}
	var wrong Census
	if err := Decode(m, KindCensus, &wrong); err == nil {
		t.Error("kind mismatch must error")
	}
}

func TestEncodeRejectsUnmarshalable(t *testing.T) {
	// Encode is lazy, so the error surfaces when the codec serializes the
	// payload — in the in-process pipe's Send as on TCP — not at Encode time.
	m, err := Encode(KindAck, make(chan int))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Binary.AppendEncode(nil, m); err == nil {
		t.Error("unmarshalable payload must error at encode time")
	}
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send(m); err == nil {
		t.Error("the pipe sent an unmarshalable payload")
	}
}

// TestDecodeRejectsMismatchedBody: a message whose Body is not the struct its
// kind names fails at Decode with an error naming both types, and leaves out
// untouched; nothing tries to convert between payload types.
func TestDecodeRejectsMismatchedBody(t *testing.T) {
	for _, body := range []interface{}{Ratio{Round: 2, X: 0.5}, &Ratio{Round: 2, X: 0.5}, nil} {
		m, err := Encode(KindCensus, body)
		if err != nil {
			t.Fatal(err)
		}
		census := Census{Edge: 7}
		err = Decode(m, KindCensus, &census)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", body)) || !strings.Contains(err.Error(), "transport.Census") {
			t.Errorf("Decode of a %T body into *Census = %v, want an error naming both types", body, err)
		}
		if census.Edge != 7 || census.Counts != nil {
			t.Errorf("a failed Decode wrote %+v", census)
		}
	}
	m, _ := Encode(KindRatio, Ratio{Round: 2, X: 0.5})
	var notAPayload int
	if err := Decode(m, KindRatio, &notAPayload); err == nil {
		t.Error("Decode into a type that is no payload struct must error")
	}
}

func exerciseConnPair(t *testing.T, a, b Conn) {
	t.Helper()
	want, err := Encode(KindPolicy, Policy{Round: 1, X: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var p Policy
	if err := Decode(got, KindPolicy, &p); err != nil {
		t.Fatal(err)
	}
	if p.Round != 1 || p.X != 0.5 {
		t.Errorf("policy = %+v", p)
	}

	// Reverse direction.
	back, err := Encode(KindAck, Ack{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(back); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}

	// Close unblocks the peer with EOF.
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Errorf("Recv after close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after peer close")
	}
}

func TestPipe(t *testing.T) {
	a, b := Pipe()
	exerciseConnPair(t, a, b)
}

func TestPipeSendAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	m, _ := Encode(KindAck, Ack{})
	if err := a.Send(m); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed conn = %v, want ErrClosed", err)
	}
	if err := b.Send(m); !errors.Is(err, ErrClosed) {
		t.Errorf("Send to closed peer = %v, want ErrClosed", err)
	}
}

func TestInprocNetwork(t *testing.T) {
	n := NewInprocNetwork()
	l, err := n.Listen("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "edge-1" {
		t.Errorf("Addr = %q", l.Addr())
	}
	if _, err := n.Listen("edge-1"); err == nil {
		t.Error("duplicate listen must error")
	}
	if _, err := n.Dial("nowhere"); err == nil {
		t.Error("dialing unknown address must error")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var server Conn
	go func() {
		defer wg.Done()
		server, _ = l.Accept()
	}()
	client, err := n.Dial("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if server == nil {
		t.Fatal("accept returned nil conn")
	}
	exerciseConnPair(t, client, server)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("Accept after close = %v", err)
	}
	if _, err := n.Dial("edge-1"); err == nil {
		t.Error("dial after listener close must error")
	}
	// The name is free again.
	if _, err := n.Listen("edge-1"); err != nil {
		t.Errorf("relisten after close: %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var server Conn
	go func() {
		defer wg.Done()
		server, _ = l.Accept()
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if server == nil {
		t.Fatal("accept returned nil conn")
	}
	exerciseConnPair(t, client, server)
}

func TestTCPManyMessages(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	go func() {
		server, err := l.Accept()
		if err != nil {
			return
		}
		defer server.Close()
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			// Echo.
			if err := server.Send(m); err != nil {
				return
			}
		}
	}()

	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 200; i++ {
		m, err := Encode(KindRatio, Ratio{Round: i, X: float64(i) / 200})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var r Ratio
		if err := Decode(got, KindRatio, &r); err != nil {
			t.Fatal(err)
		}
		if r.Round != i {
			t.Fatalf("echo %d came back as %d", i, r.Round)
		}
	}
}

func TestTCPOversizeFrameRejected(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Recv()
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	huge, err := Encode(KindAck, Ack{Err: strings.Repeat("x", MaxFrameBytes+1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame = %v, want ErrFrameTooLarge", err)
	}
}
