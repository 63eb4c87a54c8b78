package transport

import (
	"errors"
	"fmt"
)

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

// Codec serializes Messages to wire frames and back. Implementations must
// be safe for concurrent use and must not retain or alias the frame slices
// they are handed (frames come from a shared buffer pool).
type Codec interface {
	// Name is the codec's spec value and metric label ("binary").
	Name() string
	// AppendEncode appends m's wire frame (excluding the length prefix) to
	// dst and returns the extended slice.
	AppendEncode(dst []byte, m Message) ([]byte, error)
	// Decode parses one wire frame. The returned Message must not alias
	// frame.
	Decode(frame []byte) (Message, error)
}

// Binary is the wire codec: the compact tag+varint format of binary.go.
var Binary Codec = binaryCodec{}

// CodecByName resolves a `codec:` spec value. TCP conns always speak Binary;
// the name only selects serialized in-process pipes (see CodecPipe).
func CodecByName(name string) (Codec, error) {
	if name == Binary.Name() {
		return Binary, nil
	}
	return nil, fmt.Errorf("transport: unknown codec %q (want %q or empty)", name, Binary.Name())
}
