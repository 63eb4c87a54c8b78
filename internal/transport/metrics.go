package transport

import (
	"sync/atomic"

	"repro/internal/obs"
)

// wireInstruments groups the transport's wire-level metrics. It is swapped
// in atomically by Instrument so the Send/Recv hot paths pay a single
// pointer load when observability is off; conns hold its per-codec children
// through metricHandles.
type wireInstruments struct {
	bytesSent     *obs.CounterVec   // transport_bytes_sent_total{codec}
	bytesRecv     *obs.CounterVec   // transport_bytes_received_total{codec}
	encodeSeconds *obs.HistogramVec // transport_codec_encode_seconds{codec}
	decodeSeconds *obs.HistogramVec // transport_codec_decode_seconds{codec}
}

// codecBuckets resolve encode/decode latencies, which sit in the hundreds
// of nanoseconds to tens of microseconds — far below obs.DefBuckets.
var codecBuckets = []float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 1e-3, 1e-2}

var wireObs atomic.Pointer[wireInstruments]

// Instrument points the package's wire metrics at o: bytes sent/received
// and encode/decode duration, each labeled by codec. Passing nil disables
// them again. Counting is package-global rather than per-conn so short-
// lived connections aggregate into one set of series.
func Instrument(o *obs.Observer) {
	if o == nil {
		wireObs.Store(nil)
		return
	}
	wireObs.Store(&wireInstruments{
		bytesSent: o.CounterVec("transport_bytes_sent_total",
			"Wire bytes sent, including frame headers.", "codec"),
		bytesRecv: o.CounterVec("transport_bytes_received_total",
			"Wire bytes received, including frame headers.", "codec"),
		encodeSeconds: o.HistogramVec("transport_codec_encode_seconds",
			"Time to encode one message frame.", codecBuckets, "codec"),
		decodeSeconds: o.HistogramVec("transport_codec_decode_seconds",
			"Time to decode one message frame.", codecBuckets, "codec"),
	})
}

// connMetrics are one conn's wire instruments: the children of the package
// vecs for the conn's codec, so the per-frame path adds to a counter it
// already holds instead of looking one up by label.
type connMetrics struct {
	from          *wireInstruments
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
	encodeSeconds *obs.Histogram
	decodeSeconds *obs.Histogram
}

// metricHandles caches a conn's connMetrics. Senders and the receiver of one
// conn share it, so it is an atomic pointer; racing resolvers store equal
// handles.
type metricHandles struct {
	p atomic.Pointer[connMetrics]
}

// get returns the conn's instruments for codec, or nil when uninstrumented.
// They are resolved on the conn's first frame and again only after
// Instrument has re-pointed the package at another registry.
func (h *metricHandles) get(codec string) *connMetrics {
	wm := wireObs.Load()
	if wm == nil {
		return nil
	}
	cm := h.p.Load()
	if cm == nil || cm.from != wm {
		cm = &connMetrics{
			from:          wm,
			bytesSent:     wm.bytesSent.With(codec),
			bytesRecv:     wm.bytesRecv.With(codec),
			encodeSeconds: wm.encodeSeconds.With(codec),
			decodeSeconds: wm.decodeSeconds.With(codec),
		}
		h.p.Store(cm)
	}
	return cm
}
