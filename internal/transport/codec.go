package transport

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrFrameTooLarge is returned (wrapped) when a frame — outgoing or
// incoming, under either codec — exceeds MaxFrameBytes.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrCodecVersion is returned (wrapped) when version negotiation meets a
// codec version byte this binary does not implement.
var ErrCodecVersion = errors.New("transport: unknown codec version")

// Codec versions. The dialing side of a TCP connection declares one of
// these in its negotiation preamble and the accepting side adopts it, so a
// peer that only speaks JSON always gets JSON.
const (
	// VersionJSON is wire version 1: the length-prefixed JSON envelope
	// (debug/compat; human-readable, used by golden tests).
	VersionJSON byte = 1
	// VersionBinary is wire version 2: the compact tag+varint encoding.
	VersionBinary byte = 2
)

// codecMagic opens a version-negotiation exchange. A legacy (pre-v2) frame
// starts with the top byte of a 4-byte big-endian length ≤ MaxFrameBytes,
// which is always 0x00, so the magic can never be mistaken for one.
const codecMagic byte = 0xCB

// Codec serializes Messages to wire frames and back. Implementations must
// be safe for concurrent use and must not retain or alias the frame slices
// they are handed (frames come from a shared buffer pool).
type Codec interface {
	// Name is the codec's flag/metric label ("json", "binary").
	Name() string
	// Version is the codec's negotiation byte.
	Version() byte
	// AppendEncode appends m's wire frame (excluding the length prefix) to
	// dst and returns the extended slice.
	AppendEncode(dst []byte, m Message) ([]byte, error)
	// Decode parses one wire frame. The returned Message must not alias
	// frame.
	Decode(frame []byte) (Message, error)
}

// The two built-in codecs.
var (
	// JSON is the debug/compat codec: a JSON envelope with a JSON payload.
	JSON Codec = jsonCodec{}
	// Binary is the compact tag+varint codec (see binary.go).
	Binary Codec = binaryCodec{}
)

// CodecByName resolves a -codec flag value.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "json":
		return JSON, nil
	case "binary":
		return Binary, nil
	default:
		return nil, fmt.Errorf("transport: unknown codec %q (want json or binary)", name)
	}
}

// codecByVersion resolves a negotiated version byte.
func codecByVersion(v byte) (Codec, bool) {
	switch v {
	case VersionJSON:
		return JSON, true
	case VersionBinary:
		return Binary, true
	default:
		return nil, false
	}
}

// jsonCodec frames messages as the JSON envelope {"kind":...,"payload":...}.
// It is the wire format every peer speaks (version 1) and the one legacy
// peers send without negotiation.
type jsonCodec struct{}

func (jsonCodec) Name() string  { return "json" }
func (jsonCodec) Version() byte { return VersionJSON }

func (jsonCodec) AppendEncode(dst []byte, m Message) ([]byte, error) {
	if m.Payload == nil && m.Body != nil {
		raw, err := json.Marshal(m.Body)
		if err != nil {
			return nil, fmt.Errorf("transport: encoding %s payload: %w", m.Kind, err)
		}
		m.Payload = raw
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("transport: marshaling message: %w", err)
	}
	return append(dst, raw...), nil
}

func (jsonCodec) Decode(frame []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(frame, &m); err != nil {
		return Message{}, fmt.Errorf("transport: unmarshaling message: %w", err)
	}
	return m, nil
}
