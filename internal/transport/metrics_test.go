package transport

import (
	"testing"

	"repro/internal/obs"
)

// TestWireMetricsFollowInstrument: a conn resolves its per-codec counters on
// its first frame and again when Instrument points the package at another
// registry, so frames are counted where the operator is looking — header
// bytes included, as before — and not at all once instrumentation is off.
func TestWireMetricsFollowInstrument(t *testing.T) {
	defer Instrument(nil)
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
	m := mustEncode(t, KindRatio, Ratio{Round: 2, X: 0.5})
	frameBytes := int64(len(framed(t, Binary, m)))

	var server Conn
	exchange := func() {
		t.Helper()
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		if server == nil {
			if server = <-accepted; server == nil {
				t.Fatal("accept failed")
			}
			t.Cleanup(func() { server.Close() })
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(o *obs.Observer, name string) int64 {
		for _, p := range o.Registry().Snapshot() {
			if p.Name == name && len(p.Labels) == 1 && p.Labels[0].Value == "binary" {
				return int64(p.Value)
			}
		}
		return 0
	}

	first, second := obs.New(), obs.New()
	Instrument(first)
	exchange()
	exchange()
	Instrument(second)
	exchange()
	Instrument(nil)
	exchange()
	for _, c := range []struct {
		o      *obs.Observer
		frames int64
	}{{first, 2}, {second, 1}} {
		for _, name := range []string{"transport_bytes_sent_total", "transport_bytes_received_total"} {
			if got := read(c.o, name); got != c.frames*frameBytes {
				t.Errorf("%s = %d, want %d frames of %d bytes", name, got, c.frames, frameBytes)
			}
		}
	}
}
