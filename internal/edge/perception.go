package edge

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/sensor"
)

// Edge-side perception (the paper's Section VII future-work direction:
// "edge servers can perceive their surrounding environment as well and
// distribute their own perception to the bypassed vehicles"). The edge
// server owns road-side sensors and contributes their data to every round's
// distribution. Access follows the same lattice rule as vehicle data: the
// edge acts as a virtual sharer with the decision matching its sensor set,
// so only vehicles sharing at least that much can read it — keeping the
// incentive structure intact (road-side data rewards generous sharers).

// EdgeOwner is the Item owner id used for edge-server perception.
const EdgeOwner = -1

// EnablePerception configures the distributor to contribute edge-owned
// items of the given modalities each round. A zero mask disables the
// feature.
func (d *Distributor) EnablePerception(share sensor.Mask) error {
	if !share.Valid() {
		return fmt.Errorf("edge: invalid perception mask %#x", uint8(share))
	}
	decision := lattice.Decision(0)
	if share != 0 {
		dec, err := d.lat.DecisionOf(share)
		if err != nil {
			return fmt.Errorf("edge: perception mask: %w", err)
		}
		decision = dec
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.edgeShare = share
	d.edgeDecision = decision
	return nil
}

// PerceptionShare returns the configured edge sensor set (zero when
// disabled).
func (d *Distributor) PerceptionShare() sensor.Mask {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.edgeShare
}
