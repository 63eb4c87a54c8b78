// Package vehicle implements the vehicle-side agent of the cooperative
// perception system: heterogeneous preferences (privacy weight, desired and
// equipped sensor sets), the smoothed-best-response decision rule whose
// population mean field is the game-theoretic model of internal/game, upload
// construction under the chosen decision, and the utility accounting of
// received data.
package vehicle

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/lattice"
	"repro/internal/sensor"
	"repro/internal/transport"
)

// Profile is a vehicle's static configuration.
type Profile struct {
	// ID identifies the vehicle.
	ID int
	// Equipped is the sensor set S_a the vehicle collects.
	Equipped sensor.Mask
	// Desired is the data set D_a the vehicle wants from others.
	Desired sensor.Mask
	// PrivacyWeight scales the privacy cost g in the vehicle's fitness
	// (heterogeneity across passengers' privacy preferences); 1 is the
	// population nominal value.
	PrivacyWeight float64
	// Beta is the vehicle's utility coefficient (the region's beta, possibly
	// perturbed per vehicle).
	Beta float64
	// Tau is the logit choice temperature.
	Tau float64
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if !p.Equipped.Valid() || !p.Desired.Valid() {
		return fmt.Errorf("vehicle %d: invalid sensor masks", p.ID)
	}
	if p.PrivacyWeight < 0 {
		return fmt.Errorf("vehicle %d: negative privacy weight", p.ID)
	}
	if p.Beta < 0 {
		return fmt.Errorf("vehicle %d: negative beta", p.ID)
	}
	if p.Tau <= 0 {
		return fmt.Errorf("vehicle %d: non-positive temperature", p.ID)
	}
	return nil
}

// Agent is a vehicle's decision-making state.
type Agent struct {
	Profile  Profile
	payoffs  *lattice.Payoffs
	rng      *rand.Rand
	decision lattice.Decision
	q        []float64 // Revise's scratch, K long once used
	// Received accumulates the utility of delivered data (for reporting).
	ReceivedUtility float64
	ReceivedItems   int
	// SharedCost accumulates the privacy cost the vehicle incurred by
	// uploading (its weight times g of each round's decision).
	SharedCost float64
}

// NewAgent builds an agent. The initial decision is drawn uniformly.
func NewAgent(p Profile, payoffs *lattice.Payoffs, seed int64) (*Agent, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &Agent{
		Profile:  p,
		payoffs:  payoffs,
		rng:      rng,
		decision: lattice.Decision(1 + rng.Intn(payoffs.K())),
	}, nil
}

// Decision returns the agent's current decision (1-based).
func (a *Agent) Decision() lattice.Decision { return a.decision }

// SetDecision overrides the current decision (used by tests and warm
// starts).
func (a *Agent) SetDecision(d lattice.Decision) error {
	if d < 1 || int(d) > a.payoffs.K() {
		return fmt.Errorf("vehicle %d: decision %d out of range", a.Profile.ID, d)
	}
	a.decision = d
	return nil
}

// Fitness estimates the vehicle-level fitness of each decision given the
// policy (sharing ratio x and the cell's decision distribution shares):
// the per-vehicle analogue of Eq. 4 with the agent's own privacy weight,
//
//	q_k = beta * x * sum_{l in Acc(k)} shares[l] * f_l - w * g_k.
//
// Only desired modalities count toward the utility term: f_l is attenuated
// by the fraction of decision l's shared modalities the agent desires.
func (a *Agent) Fitness(x float64, shares []float64) ([]float64, error) {
	return a.fitnessInto(nil, x, shares)
}

// fitnessInto is Fitness written into out's backing array when that holds K
// values, and into a fresh one otherwise.
func (a *Agent) fitnessInto(out []float64, x float64, shares []float64) ([]float64, error) {
	if len(shares) != a.payoffs.K() {
		return nil, fmt.Errorf("vehicle %d: shares has %d entries, want %d", a.Profile.ID, len(shares), a.payoffs.K())
	}
	lat := a.payoffs.Lattice()
	if cap(out) < a.payoffs.K() {
		out = make([]float64, a.payoffs.K())
	}
	out = out[:a.payoffs.K()]
	for k := 1; k <= a.payoffs.K(); k++ {
		utility := 0.0
		for l := 1; l <= a.payoffs.K(); l++ {
			if !lat.CanAccess(lattice.Decision(k), lattice.Decision(l)) {
				continue
			}
			share := lat.MustShare(lattice.Decision(l))
			frac := desiredFraction(share, a.Profile.Desired)
			utility += shares[l-1] * a.payoffs.Utility[l-1] * frac
		}
		out[k-1] = a.Profile.Beta*x*utility - a.Profile.PrivacyWeight*a.payoffs.Cost[k-1]
	}
	return out, nil
}

// desiredFraction returns |share ∩ desired| / |share| (1 for empty shares,
// since nothing undesired is received either).
func desiredFraction(share, desired sensor.Mask) float64 {
	n := share.Count()
	if n == 0 {
		return 1
	}
	return float64(share.Intersect(desired).Count()) / float64(n)
}

// Revise draws a new decision from the logit distribution over the current
// fitness estimates. With probability 1-mu the agent keeps its decision
// (the revision-opportunity model matching game.LogitDynamics).
func (a *Agent) Revise(x float64, shares []float64, mu float64) error {
	if mu < 0 || mu > 1 {
		return fmt.Errorf("vehicle %d: revision probability %f outside [0,1]", a.Profile.ID, mu)
	}
	if a.rng.Float64() >= mu {
		return nil
	}
	q, err := a.fitnessInto(a.q, x, shares)
	if err != nil {
		return err
	}
	a.q = q
	probs := q
	softmax(q, a.Profile.Tau, probs) // in place: softmax reads an entry before it writes it
	r := a.rng.Float64()
	cum := 0.0
	for k, p := range probs {
		cum += p
		if r <= cum {
			a.decision = lattice.Decision(k + 1)
			return nil
		}
	}
	a.decision = lattice.Decision(len(probs))
	return nil
}

func softmax(q []float64, tau float64, out []float64) {
	maxQ := math.Inf(-1)
	for _, v := range q {
		if v > maxQ {
			maxQ = v
		}
	}
	total := 0.0
	for k, v := range q {
		e := math.Exp((v - maxQ) / tau)
		out[k] = e
		total += e
	}
	for k := range out {
		out[k] /= total
	}
}

// BuildUpload constructs the step-④ message for the current round: one item
// per modality in S_a ∩ P^{k_a}.
func (a *Agent) BuildUpload(round int) transport.Upload {
	a.SharedCost += a.Profile.PrivacyWeight * a.payoffs.Cost[a.decision-1]
	return transport.Upload{
		Vehicle:  a.Profile.ID,
		Round:    round,
		Decision: int(a.decision),
		Share:    a.payoffs.Lattice().MustShare(a.decision).Intersect(a.Profile.Equipped),
	}
}

// AbsorbDelivery accounts the utility of a step-⑤ delivery: each received
// desired modality contributes its Table III share of utility; undesired
// items contribute nothing (Property 3.1(a)).
func (a *Agent) AbsorbDelivery(d transport.Delivery, cap *sensor.CapabilityTable) error {
	// A modality's contribution is looked up once per delivery, on its first
	// item, and added item by item so the running sum rounds as it always has.
	var (
		sums [sensor.Radar + 1]float64 // by modality
		have [sensor.Radar + 1]bool
	)
	for _, item := range d.Items {
		a.ReceivedItems++
		if !a.Profile.Desired.Has(item.Modality) {
			continue
		}
		i := int(item.Modality)
		if i >= len(sums) || !have[i] {
			// The table knows the three modalities only, so a value past
			// Radar fails here and never indexes sums.
			u, err := cap.SumContribution(item.Modality)
			if err != nil {
				return fmt.Errorf("vehicle %d: absorbing delivery: %w", a.Profile.ID, err)
			}
			sums[i], have[i] = u, true
		}
		a.ReceivedUtility += sums[i]
	}
	return nil
}
