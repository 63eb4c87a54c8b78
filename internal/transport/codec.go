package transport

import "errors"

// ErrFrameTooLarge is returned (wrapped) when a frame — outgoing or
// incoming — exceeds MaxFrameBytes.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrCodecVersion is returned (wrapped) when a TCP peer does not open with
// the codec preamble, or declares a version other than VersionBinary.
var ErrCodecVersion = errors.New("transport: unknown codec version")

// VersionBinary is the wire version the dialing side of a TCP connection
// declares in its preamble: the compact tag+varint encoding of binary.go.
const VersionBinary byte = 2

// codecMagic opens the [magic, version] preamble. A bare frame starts with
// the top byte of a 4-byte big-endian length ≤ MaxFrameBytes, which is
// always 0x00, so the magic can never be mistaken for one.
const codecMagic byte = 0xCB

// Binary is the wire codec: the compact tag+varint format of binary.go. It
// is safe for concurrent use and never retains or aliases the frame slices
// it is handed (frames come from a shared buffer pool).
var Binary binaryCodec
