// Package edge implements the edge-server role of Fig. 1: it registers the
// vehicles of its Voronoi cell, collects their per-round sensor uploads
// (step ④), applies the lattice-based data-sharing policy with the sharing
// ratio x set by the cloud, and distributes the collected data back
// (step ⑤). It also aggregates the cell's decision census for the cloud
// (step ①) and applies ratio updates (step ②).
package edge

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// ErrStaleUpload marks an upload for a round other than the current one —
// the harmless by-product of a delayed policy broadcast or a vehicle
// reconnecting mid-round, not a protocol violation.
var ErrStaleUpload = errors.New("edge: upload for a stale round")

// Distributor is the edge server's policy engine, independent of any
// transport: it accumulates one round's uploads and computes each vehicle's
// delivery under the lattice policy.
type Distributor struct {
	lat *lattice.Lattice
	rng *rand.Rand

	mu    sync.Mutex
	round int
	x     float64
	// slots holds one upload per vehicle and is kept from round to round;
	// a slot counts toward the current round only while its gen is the
	// distributor's.
	slots map[int]uploadSlot
	gen   uint64 // advanced by BeginRound; starts at 1
	n     int    // slots filled this round

	// Distribute's scratch and result, kept from round to round.
	vehicles []int
	wins     []win
	out      map[int][]transport.Item
	slab     []transport.Item

	// Edge-side perception (see perception.go); zero mask disables it.
	edgeShare    sensor.Mask
	edgeDecision lattice.Decision
}

// uploadSlot is one vehicle's upload and the round it counts toward.
type uploadSlot struct {
	gen uint64
	up  transport.Upload
}

// win is one sharer's run (a vehicle's, or the edge's) won by the receiver
// at that index of the round's sorted uploaders.
type win struct {
	receiver int
	owner    int
	share    sensor.Mask
}

// NewDistributor builds a distributor over the decision lattice with the
// given random seed (randomness implements the sharing-ratio coin flips).
func NewDistributor(lat *lattice.Lattice, seed int64) *Distributor {
	return &Distributor{
		lat:   lat,
		rng:   rand.New(rand.NewSource(seed)),
		x:     1,
		slots: make(map[int]uploadSlot),
		gen:   1,
		out:   make(map[int][]transport.Item),
	}
}

// BeginRound resets the upload buffer and records the round's sharing
// ratio. It returns an error for an invalid ratio.
func (d *Distributor) BeginRound(round int, x float64) error {
	if x < 0 || x > 1 {
		return fmt.Errorf("edge: sharing ratio %f outside [0,1]", x)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.round = round
	d.x = x
	// A vehicle that sat out the round just ended (it left the cell) gives
	// its slot up; the others keep theirs for the upload they send next.
	for v, s := range d.slots {
		if s.gen != d.gen {
			delete(d.slots, v)
		}
	}
	d.gen++
	d.n = 0
	return nil
}

// Round returns the current round number.
func (d *Distributor) Round() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.round
}

// X returns the current sharing ratio.
func (d *Distributor) X() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.x
}

// AddUpload records u.Vehicle's upload for the current round. Uploads for
// other rounds are rejected; a vehicle uploading twice replaces its earlier
// upload. The upload's decision must be valid, and its share must be a
// subset of what the decision shares (the edge enforces the policy: a
// vehicle cannot smuggle modalities its decision does not share).
func (d *Distributor) AddUpload(u transport.Upload) error {
	// Policy validation first: it reads only the immutable lattice, so it
	// needs no lock.
	share, err := d.lat.Share(lattice.Decision(u.Decision))
	if err != nil {
		return fmt.Errorf("edge: upload from vehicle %d: %w", u.Vehicle, err)
	}
	if !u.Share.SubsetOf(share) {
		return fmt.Errorf("edge: vehicle %d shared %v not covered by decision %d (%v)",
			u.Vehicle, u.Share, u.Decision, share)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// The round check and the insert must share one lock acquisition: with
	// them split, a BeginRound between the two lands a stale upload in the
	// new round's buffer.
	if u.Round != d.round {
		return fmt.Errorf("%w: upload for round %d, current round is %d", ErrStaleUpload, u.Round, d.round)
	}
	if d.slots[u.Vehicle].gen != d.gen {
		d.n++
	}
	d.slots[u.Vehicle] = uploadSlot{d.gen, u}
	return nil
}

// NumUploads returns the number of vehicles that uploaded this round.
func (d *Distributor) NumUploads() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Distribute computes each uploader's delivery: for every other vehicle b
// with decision k_b such that P^{k_b} ⊆ P^{k_a}, vehicle a receives b's
// items with probability x (one coin flip per sharer-receiver pair, so a
// sharer's items are delivered atomically, matching the paper's
// "probability x to access the shared data from b"). The deliveries are
// capped sub-slices of one slab, and an uploader that receives nothing maps to
// nil. The map and the slab are the distributor's own: the result is valid
// until the next Distribute.
func (d *Distributor) Distribute() map[int][]transport.Item {
	d.mu.Lock()
	defer d.mu.Unlock()

	vehicles := d.vehicles[:0]
	for v, s := range d.slots {
		if s.gen == d.gen {
			vehicles = append(vehicles, v)
		}
	}
	sort.Ints(vehicles) // determinism for a fixed seed
	d.vehicles = vehicles

	// First pass: flip the coins in their fixed order (a outer, b inner, then
	// a's edge-perception flip) and note who won what, which sizes the slab.
	wins, total := d.wins[:0], 0
	for i, a := range vehicles {
		ua := d.slots[a].up
		for _, b := range vehicles {
			if a == b {
				continue
			}
			ub := d.slots[b].up
			if !d.lat.CanAccess(lattice.Decision(ua.Decision), lattice.Decision(ub.Decision)) {
				continue
			}
			if d.rng.Float64() >= d.x {
				continue
			}
			wins = append(wins, win{i, b, ub.Share})
			total += ub.Share.Count()
		}
		// Edge-side perception: delivered under the same lattice rule and
		// sharing ratio, with the edge acting as a virtual sharer.
		if d.edgeShare != 0 &&
			d.lat.CanAccess(lattice.Decision(ua.Decision), d.edgeDecision) &&
			d.rng.Float64() < d.x {
			wins = append(wins, win{i, EdgeOwner, d.edgeShare})
			total += d.edgeShare.Count()
		}
	}
	d.wins = wins

	// Second pass: copy each receiver's run of wins into its cut of the slab.
	out := d.out
	clear(out)
	if cap(d.slab) < total {
		d.slab = make([]transport.Item, total)
	}
	slab := d.slab[:total]
	for i, a := range vehicles {
		n, run := 0, 0
		for ; run < len(wins) && wins[run].receiver == i; run++ {
			n += wins[run].share.Count()
		}
		var items []transport.Item
		if n > 0 {
			items, slab = slab[:0:n], slab[n:]
		}
		for _, w := range wins[:run] {
			items = transport.AppendRun(items, w.owner, w.share)
		}
		wins = wins[run:]
		out[a] = items
	}
	return out
}

// Census returns the decision counts of the current round's uploads
// (Counts[k] = vehicles on decision k+1).
func (d *Distributor) Census() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	counts := make([]int, d.lat.K())
	for _, s := range d.slots {
		if u := &s.up; s.gen == d.gen && u.Decision >= 1 && u.Decision <= d.lat.K() {
			counts[u.Decision-1]++
		}
	}
	return counts
}

// Shares converts a census into a decision distribution, written into
// dst's backing array when it has the room; a census with no vehicles yields
// a uniform distribution.
func Shares(dst []float64, counts []int) []float64 {
	out := append(dst[:0], make([]float64, len(counts))...)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(counts))
		}
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}
