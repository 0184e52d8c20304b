// Package snn implements leaky integrate-and-fire spiking neural networks,
// the computation class the paper's related work (Hueber et al.) finds
// attractive for power-constrained BCIs and that Section 7 names as the
// planned extension of the MINDFUL analysis.
//
// The power story differs fundamentally from DNNs: an SNN layer performs
// accumulate-only synaptic operations, and only for input spikes that
// actually occur. The package therefore counts synaptic events exactly
// during simulation and prices them per-event, so the framework can ask:
// below which input activity does an SNN beat the MAC lower bound of an
// equivalent MLP?
package snn

import (
	"fmt"

	"mindful/internal/detrand"
	"mindful/internal/units"
)

// LIF holds the shared neuron parameters of a layer: a discrete-time leaky
// integrate-and-fire model
//
//	v[t+1] = leak·v[t] + I[t];  spike & reset when v ≥ threshold
type LIF struct {
	// Leak is the per-step membrane decay in (0, 1].
	Leak float64
	// Threshold is the firing threshold.
	Threshold float64
	// Reset is the post-spike membrane value.
	Reset float64
	// RefractorySteps suppresses integration after a spike.
	RefractorySteps int
}

// DefaultLIF returns standard parameters (decay 0.9, threshold 1).
func DefaultLIF() LIF {
	return LIF{Leak: 0.9, Threshold: 1.0, Reset: 0, RefractorySteps: 2}
}

// Validate checks the parameters.
func (p LIF) Validate() error {
	if p.Leak <= 0 || p.Leak > 1 {
		return fmt.Errorf("snn: leak %g outside (0, 1]", p.Leak)
	}
	if p.Threshold <= p.Reset {
		return fmt.Errorf("snn: threshold %g not above reset %g", p.Threshold, p.Reset)
	}
	if p.RefractorySteps < 0 {
		return fmt.Errorf("snn: negative refractory period")
	}
	return nil
}

// Layer is one fully connected spiking layer.
type Layer struct {
	// W is Out×In synaptic weights.
	W [][]float64
	// Params are the layer's neuron parameters.
	Params LIF

	v    []float64
	hold []int
}

// NewLayer builds a layer from a rectangular weight matrix.
func NewLayer(w [][]float64, p LIF) (*Layer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, fmt.Errorf("snn: empty weight matrix")
	}
	for i, row := range w {
		if len(row) != len(w[0]) {
			return nil, fmt.Errorf("snn: ragged weights at row %d", i)
		}
	}
	return &Layer{W: w, Params: p, v: make([]float64, len(w)), hold: make([]int, len(w))}, nil
}

// RandLayer builds a layer with positive random weights scaled so that a
// fully active input drives neurons past threshold within a few steps.
func RandLayer(rng *detrand.Rand, in, out int, p LIF) *Layer {
	w := make([][]float64, out)
	scale := 4 * p.Threshold / float64(in)
	for o := range w {
		row := make([]float64, in)
		for i := range row {
			row[i] = rng.Float64() * scale
		}
		w[o] = row
	}
	l, err := NewLayer(w, p)
	if err != nil {
		panic(err) // construction is shape-correct
	}
	return l
}

// In and Out report the layer dimensions.
func (l *Layer) In() int  { return len(l.W[0]) }
func (l *Layer) Out() int { return len(l.W) }

// Step advances one timestep: spikes is the binary input vector. It
// returns the output spike vector and the number of synaptic accumulate
// events performed (nnz(spikes) × Out — the event-driven cost).
func (l *Layer) Step(spikes []byte) ([]byte, int, error) {
	if len(spikes) != l.In() {
		return nil, 0, fmt.Errorf("snn: input length %d != %d", len(spikes), l.In())
	}
	events := 0
	// Event-driven accumulation: only active inputs touch the synapses.
	for i, s := range spikes {
		if s == 0 {
			continue
		}
		for o := range l.W {
			l.v[o] += l.W[o][i]
		}
		events += l.Out()
	}
	out := make([]byte, l.Out())
	for o := range l.v {
		if l.hold[o] > 0 {
			l.hold[o]--
			l.v[o] = l.Params.Reset
			continue
		}
		if l.v[o] >= l.Params.Threshold {
			out[o] = 1
			l.v[o] = l.Params.Reset
			l.hold[o] = l.Params.RefractorySteps
			continue
		}
		l.v[o] *= l.Params.Leak
	}
	return out, events, nil
}

// Reset clears membrane state.
func (l *Layer) Reset() {
	for i := range l.v {
		l.v[i] = 0
		l.hold[i] = 0
	}
}

// Network is a feed-forward stack of spiking layers.
type Network struct {
	Layers []*Layer

	steps  int64
	events int64
	counts []int64 // output spike counts since last ResetCounts
}

// NewNetwork validates layer compatibility.
func NewNetwork(layers ...*Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("snn: network needs at least one layer")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].In() != layers[i-1].Out() {
			return nil, fmt.Errorf("snn: layer %d input %d != layer %d output %d",
				i, layers[i].In(), i-1, layers[i-1].Out())
		}
	}
	last := layers[len(layers)-1]
	return &Network{Layers: layers, counts: make([]int64, last.Out())}, nil
}

// In and Out report the network dimensions.
func (n *Network) In() int  { return n.Layers[0].In() }
func (n *Network) Out() int { return n.Layers[len(n.Layers)-1].Out() }

// Step propagates one timestep of input spikes through all layers.
func (n *Network) Step(spikes []byte) ([]byte, error) {
	cur := spikes
	for i, l := range n.Layers {
		out, ev, err := l.Step(cur)
		if err != nil {
			return nil, fmt.Errorf("snn: layer %d: %w", i, err)
		}
		n.events += int64(ev)
		cur = out
	}
	for i, s := range cur {
		if s != 0 {
			n.counts[i]++
		}
	}
	n.steps++
	return cur, nil
}

// Steps and SynapticEvents report the accounting since construction.
func (n *Network) Steps() int64          { return n.steps }
func (n *Network) SynapticEvents() int64 { return n.events }

// Rates returns per-output spike rates (spikes per step) since the last
// ResetCounts.
func (n *Network) Rates() []float64 {
	out := make([]float64, len(n.counts))
	if n.steps == 0 {
		return out
	}
	for i, c := range n.counts {
		out[i] = float64(c) / float64(n.steps)
	}
	return out
}

// ResetCounts zeroes rate counters and step/event accounting while keeping
// membrane state.
func (n *Network) ResetCounts() {
	n.steps, n.events = 0, 0
	for i := range n.counts {
		n.counts[i] = 0
	}
}

// Reset clears all state.
func (n *Network) Reset() {
	n.ResetCounts()
	for _, l := range n.Layers {
		l.Reset()
	}
}

// Synapses returns the total synaptic weight count — the dense-equivalent
// workload size.
func (n *Network) Synapses() int {
	t := 0
	for _, l := range n.Layers {
		t += l.In() * l.Out()
	}
	return t
}

// PoissonEncoder converts analog values in [0, 1] into spike trains whose
// rates are proportional to the values.
type PoissonEncoder struct {
	rng *detrand.Rand
	// MaxRate is the spike probability per step at input 1.0.
	MaxRate float64
}

// NewPoissonEncoder returns a seeded encoder.
func NewPoissonEncoder(seed int64, maxRate float64) (*PoissonEncoder, error) {
	if maxRate <= 0 || maxRate > 1 {
		return nil, fmt.Errorf("snn: max rate %g outside (0, 1]", maxRate)
	}
	return &PoissonEncoder{rng: detrand.New(seed), MaxRate: maxRate}, nil
}

// Encode produces one timestep of spikes for the value vector (values are
// clamped to [0, 1]).
func (e *PoissonEncoder) Encode(values []float64) []byte {
	out := make([]byte, len(values))
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		if e.rng.Float64() < v*e.MaxRate {
			out[i] = 1
		}
	}
	return out
}

// EnergyModel prices synaptic events. An accumulate-only synaptic op costs
// a fraction of a full multiply-accumulate; 0.4 is a representative ratio
// for 8-bit datapaths.
type EnergyModel struct {
	// PerEvent is the energy of one synaptic accumulate.
	PerEvent units.Energy
}

// ACOverMACRatio is the default accumulate/multiply-accumulate energy
// ratio.
const ACOverMACRatio = 0.4

// EnergyFromMAC derives the synaptic event energy from a MAC step energy.
func EnergyFromMAC(macStep units.Energy) EnergyModel {
	return EnergyModel{PerEvent: units.Energy(macStep.Joules() * ACOverMACRatio)}
}

// Power returns the average power of a network that executed events
// synaptic ops over the given duration in seconds.
func (m EnergyModel) Power(events int64, seconds float64) units.Power {
	if seconds <= 0 {
		return 0
	}
	return units.Power(float64(events) * m.PerEvent.Joules() / seconds)
}

// DenseEquivalentEvents returns the events an equivalent dense (MAC-based)
// network would execute over the same steps: every synapse, every step.
func (n *Network) DenseEquivalentEvents() int64 {
	return n.steps * int64(n.Synapses())
}

// ActivityFactor returns the fraction of dense work actually performed —
// the SNN's headline advantage. 1.0 means no sparsity benefit.
func (n *Network) ActivityFactor() float64 {
	dense := n.DenseEquivalentEvents()
	if dense == 0 {
		return 0
	}
	return float64(n.events) / float64(dense)
}
