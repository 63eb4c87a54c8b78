package transport

import (
	"testing"

	"repro/internal/obs"
)

// TestWireMetricsFollowInstrument: every frame is counted in the registry
// Instrument last pointed the package at — header bytes included on TCP,
// none on an in-process codec pipe, which has no length prefix — and not at
// all once instrumentation is off. The four series carry no labels.
func TestWireMetricsFollowInstrument(t *testing.T) {
	defer Instrument(nil)
	m := mustEncode(t, KindRatio, Ratio{Round: 2, X: 0.5})
	body := int64(len(framed(t, m))) - 4

	tcp := func(t *testing.T) (client, server Conn) {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		accepted := acceptOne(t, l)
		if client, err = DialTCP(l.Addr()); err != nil {
			t.Fatal(err)
		}
		// One uncounted exchange carries the dialer's preamble and lets
		// Accept return.
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		if server = <-accepted; server == nil {
			t.Fatal("accept failed")
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		return client, server
	}
	serialized := func(t *testing.T) (Conn, Conn) {
		net := NewInprocNetwork()
		net.Serialize = true
		l, err := net.Listen("server")
		if err != nil {
			t.Fatal(err)
		}
		client, err := net.Dial("server")
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return client, server
	}

	for _, c := range []struct {
		name   string
		pair   func(*testing.T) (Conn, Conn)
		header int64
	}{{"tcp", tcp, 4}, {"serialized pipe", serialized, 0}} {
		t.Run(c.name, func(t *testing.T) {
			client, server := c.pair(t)
			defer client.Close()
			defer server.Close()
			exchange := func() {
				t.Helper()
				if err := client.Send(m); err != nil {
					t.Fatal(err)
				}
				if _, err := server.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			first, second := obs.New(), obs.New()
			Instrument(first)
			exchange()
			exchange()
			Instrument(second)
			exchange()
			Instrument(nil)
			exchange()
			for _, want := range []struct {
				o      *obs.Observer
				frames int64
			}{{first, 2}, {second, 1}} {
				points := map[string]obs.Point{}
				for _, p := range want.o.Registry().Snapshot() {
					if len(p.Labels) != 0 {
						t.Errorf("%s carries labels %v, want none", p.Name, p.Labels)
					}
					points[p.Name] = p
				}
				for _, name := range []string{"transport_bytes_sent_total", "transport_bytes_received_total"} {
					if got := int64(points[name].Value); got != want.frames*(body+c.header) {
						t.Errorf("%s = %d, want %d frames of %d bytes", name, got, want.frames, body+c.header)
					}
				}
				for _, name := range []string{"transport_codec_encode_seconds", "transport_codec_decode_seconds"} {
					if got := points[name].Count; got != want.frames {
						t.Errorf("%s count = %d, want %d", name, got, want.frames)
					}
				}
			}
		})
	}
}
