package transport

import (
	"sync/atomic"

	"repro/internal/obs"
)

// wireInstruments groups the transport's wire-level metrics. It is swapped
// in atomically by Instrument, so a frame pays a single pointer load to find
// them, and finds nil when observability is off.
type wireInstruments struct {
	bytesSent     *obs.Counter   // transport_bytes_sent_total
	bytesRecv     *obs.Counter   // transport_bytes_received_total
	encodeSeconds *obs.Histogram // transport_codec_encode_seconds
	decodeSeconds *obs.Histogram // transport_codec_decode_seconds
}

// codecBuckets resolve encode/decode latencies, which sit in the hundreds
// of nanoseconds to tens of microseconds — far below obs.DefBuckets.
var codecBuckets = []float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 1e-3, 1e-2}

var wireObs atomic.Pointer[wireInstruments]

// Instrument points the package's wire metrics at o: bytes sent/received
// and encode/decode duration. Passing nil disables them again. Counting is
// package-global rather than per-conn so short-lived connections aggregate
// into one set of series.
func Instrument(o *obs.Observer) {
	if o == nil {
		wireObs.Store(nil)
		return
	}
	wireObs.Store(&wireInstruments{
		bytesSent: o.Counter("transport_bytes_sent_total",
			"Wire bytes sent, including frame headers."),
		bytesRecv: o.Counter("transport_bytes_received_total",
			"Wire bytes received, including frame headers."),
		encodeSeconds: o.Histogram("transport_codec_encode_seconds",
			"Time to encode one message frame.", codecBuckets),
		decodeSeconds: o.Histogram("transport_codec_decode_seconds",
			"Time to decode one message frame.", codecBuckets),
	})
}
