// Package sensor models the three on-board sensor modalities of the paper —
// camera, LiDAR, and radar — together with the 11-factor perception
// capability matrix of Table III and the privacy-sensitivity ranking used to
// derive the per-decision utility and privacy cost of Table II.
package sensor

import "fmt"

// Type identifies a sensor modality. Types are bit flags so a set of
// modalities fits in one word (see Mask).
type Type uint8

// Sensor modalities.
const (
	Camera Type = 1 << iota
	LiDAR
	Radar
)

// AllTypes lists the modalities in canonical order.
func AllTypes() []Type { return []Type{Camera, LiDAR, Radar} }

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Camera:
		return "camera"
	case LiDAR:
		return "lidar"
	case Radar:
		return "radar"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Valid reports whether t is exactly one known modality.
func (t Type) Valid() bool { return t != 0 && t&(t-1) == 0 && Mask(t).Valid() }

// Mask is a set of sensor modalities (a subset of {Camera, LiDAR, Radar}).
// The zero Mask is the empty set.
type Mask uint8

// MaskAll is the full set Ω = {camera, lidar, radar}.
const MaskAll = Mask(Camera | LiDAR | Radar)

// MaskOf builds a mask from modalities.
func MaskOf(types ...Type) Mask {
	var m Mask
	for _, t := range types {
		m |= Mask(t)
	}
	return m
}

// Has reports whether the mask contains modality t.
func (m Mask) Has(t Type) bool { return m&Mask(t) != 0 }

// SubsetOf reports whether m ⊆ other.
func (m Mask) SubsetOf(other Mask) bool { return m&other == m }

// ProperSubsetOf reports whether m ⊊ other.
func (m Mask) ProperSubsetOf(other Mask) bool { return m != other && m.SubsetOf(other) }

// Union returns m ∪ other.
func (m Mask) Union(other Mask) Mask { return m | other }

// Intersect returns m ∩ other.
func (m Mask) Intersect(other Mask) Mask { return m & other }

// Count returns the number of modalities in the mask.
func (m Mask) Count() int {
	n := 0
	for _, t := range AllTypes() {
		if m.Has(t) {
			n++
		}
	}
	return n
}

// Types returns the modalities in the mask in canonical order.
func (m Mask) Types() []Type {
	var out []Type
	for _, t := range AllTypes() {
		if m.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// String implements fmt.Stringer, e.g. "{camera,lidar}".
func (m Mask) String() string {
	if m == 0 {
		return "{}"
	}
	s := "{"
	for i, t := range m.Types() {
		if i > 0 {
			s += ","
		}
		s += t.String()
	}
	return s + "}"
}

// Valid reports whether the mask contains only known modalities.
func (m Mask) Valid() bool { return m.SubsetOf(MaskAll) }
