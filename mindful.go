// Package mindful is the public API of MINDFUL-Go, a from-scratch Go
// implementation of "MINDFUL: Safe, Implantable, Large-Scale Brain-Computer
// Interfaces from a System-Level Design Perspective" (MICRO 2025).
//
// The framework answers one question: given an implanted BCI SoC that must
// sense n neural channels, compute, and transmit wirelessly — all under the
// 40 mW/cm² thermal safety budget — which designs are feasible, and where
// do they break as n grows?
//
// The API is organized around four layers:
//
//   - Designs: the Table 1 database of published implanted SoCs, the
//     Eq. (1) scaling engine, and the sensing/non-sensing decomposition
//     (Table1, DesignByNum, Design.Baseline).
//   - Safety: the power budget and a Pennes bio-heat solver that recovers
//     the 1–2 °C limit from first principles (PowerBudget, CheckSafety,
//     ThermalModel).
//   - Communication and computation models: OOK/QAM link budgets
//     (NewQAM, NominalLinkBudget), DNN workload templates and the MAC
//     lower-bound scheduler (MLPTemplate, ScheduleLowerBound,
//     NewEvaluator).
//   - The virtual implant: a tick-driven pipeline that runs synthetic
//     cortical data through ADC, packetizer or on-implant network, and a
//     constant-Eb radio, with live power and safety accounting
//     (NewImplant).
//
// The facade re-exports these layers for the examples, and nothing more:
// a name stays here only while an example or this package's tests uses
// it, or a remaining signature needs its type. The one command,
// cmd/mindful, imports the internal packages directly; it runs the
// virtual implant (mindful implant), queries the design database
// (mindful soc), regenerates every table and figure of the paper's
// evaluation, and drives the systems layers built on top — fleet
// simulation, the serving gateway, the sharded cluster, chaos hardening
// and drift. See DESIGN.md and EXPERIMENTS.md for the experiment index.
package mindful

import (
	"fmt"
	"time"

	"mindful/internal/afe"
	"mindful/internal/comm"
	"mindful/internal/decode"
	"mindful/internal/detrand"
	"mindful/internal/dnnmodel"
	"mindful/internal/dsp"
	"mindful/internal/implant"
	"mindful/internal/mac"
	"mindful/internal/neural"
	"mindful/internal/nn"
	"mindful/internal/obs"
	"mindful/internal/optimize"
	"mindful/internal/sched"
	"mindful/internal/snn"
	"mindful/internal/soc"
	"mindful/internal/thermal"
	"mindful/internal/units"
	"mindful/internal/wearable"
	"mindful/internal/wpt"
)

// Physical quantities.
type (
	// Power is an electrical power in watts.
	Power = units.Power
	// Area is a surface area in square metres.
	Area = units.Area
	// PowerDensity is power per unit area in W/m².
	PowerDensity = units.PowerDensity
	// Energy is an amount of energy in joules.
	Energy = units.Energy
	// DataRate is a throughput in bits per second.
	DataRate = units.DataRate
	// Frequency is a rate in hertz.
	Frequency = units.Frequency
)

// Quantity constructors.
var (
	Milliwatts        = units.Milliwatts
	SquareMillimetres = units.SquareMillimetres
	MegabitsPerSecond = units.MegabitsPerSecond
	Kilohertz         = units.Kilohertz
)

// Design database and scaling (Section 4).
type (
	// Design is one published implanted SoC (a Table 1 row).
	Design = soc.Design
	// Baseline is a design scaled to 1024 channels and decomposed into
	// sensing and non-sensing shares.
	Baseline = soc.Baseline
)

// StandardChannels is the current 1024-channel NI standard.
const StandardChannels = soc.StandardChannels

// Table1 returns the paper's eleven-design database.
func Table1() []Design { return soc.Table1() }

// WirelessDesigns returns SoCs 1–8, the paper's target systems.
func WirelessDesigns() []Design { return soc.WirelessDesigns() }

// DesignByNum looks a design up by its Table 1 number (1–11).
func DesignByNum(num int) (Design, bool) { return soc.ByNum(num) }

// Roadmap is the channel-count scaling law (doubling every seven years).
type Roadmap = soc.Roadmap

// DefaultRoadmap anchors 1024 channels at 2025.
func DefaultRoadmap() Roadmap { return soc.DefaultRoadmap() }

// Safety (Section 3.2).
type (
	// SafetyCheck is the result of a power-density evaluation.
	SafetyCheck = thermal.Check
	// ThermalModel is the 1-D Pennes bio-heat tissue model.
	ThermalModel = thermal.Model
)

// SafePowerDensity is the 40 mW/cm² implant limit.
var SafePowerDensity = thermal.SafeDensity

// PowerBudget returns the safe total power for a contact area (Eq. 3).
func PowerBudget(a Area) Power { return thermal.Budget(a) }

// CheckSafety evaluates power p over area a against the budget.
func CheckSafety(p Power, a Area) SafetyCheck { return thermal.Evaluate(p, a) }

// DefaultThermalModel returns the brain-tissue bio-heat model used to
// validate the safety constant.
func DefaultThermalModel() ThermalModel { return thermal.DefaultModel() }

// Communication (Sections 5.1–5.2).
type (
	// Modulation is an analytic modulation scheme (OOK or M-QAM).
	Modulation = comm.Modulation
	// LinkBudget prices a wireless uplink.
	LinkBudget = comm.LinkBudget
	// Modem is a bit-level modulator/demodulator.
	Modem = comm.Modem
)

// OOK returns the on-off-keying scheme current implants prefer.
func OOK() Modulation { return comm.OOK{} }

// NewQAM returns a k-bit-per-symbol QAM scheme.
func NewQAM(bits int) Modulation { return comm.NewQAM(bits) }

// NewModem returns a bit-accurate modem for a modulation scheme.
func NewModem(m Modulation) (Modem, error) { return comm.NewModem(m) }

// NominalLinkBudget returns the paper's Section 5.2 link assumptions at
// the given transmitter efficiency.
func NominalLinkBudget(efficiency float64) LinkBudget { return comm.NominalBudget(efficiency) }

// Computation (Sections 5.3–6).
type (
	// DNNTemplate is a scalable network family (MLP or DN-CNN).
	DNNTemplate = dnnmodel.Template
	// DNNModel is a concrete scaled network.
	DNNModel = dnnmodel.Model
	// TechNode is a synthesis technology (130/45/12 nm).
	TechNode = mac.TechNode
	// ScheduleResult is the Eq. (11)–(15) MAC lower bound.
	ScheduleResult = sched.Result
	// Evaluator prices computation-centric design points.
	Evaluator = optimize.Evaluator
	// OptimizationStep is a Section 6.2 cumulative optimization bundle.
	OptimizationStep = optimize.Step
)

// NanGate45 is the 45 nm node of the Section 5.3 evaluation.
var NanGate45 = mac.NanGate45

// MLPTemplate returns the paper's MLP workload family.
func MLPTemplate() DNNTemplate { return dnnmodel.MLP() }

// ScheduleLowerBound returns the minimum-MAC-unit schedule for a model
// under deadline t on a technology node (the better of pipelined and
// non-pipelined).
func ScheduleLowerBound(m DNNModel, deadline time.Duration, node TechNode) (ScheduleResult, error) {
	return sched.Best(m, deadline, node)
}

// DeadlineFor returns the paper's real-time budget t = 1/f.
func DeadlineFor(f Frequency) time.Duration { return sched.DeadlineFor(f) }

// NewEvaluator returns the computation-centric evaluator for one SoC
// baseline and one DNN family (45 nm, unpartitioned).
func NewEvaluator(b Baseline, t DNNTemplate) Evaluator { return optimize.NewEvaluator(b, t) }

// OptimizationSteps lists the Fig. 12 cumulative bundles in order.
func OptimizationSteps() []OptimizationStep { return optimize.Steps() }

// Neural substrate, decoders and networks.
type (
	// NeuralConfig describes a synthetic neural interface.
	NeuralConfig = neural.Config
	// NeuralGenerator produces multichannel cortical signals.
	NeuralGenerator = neural.Generator
	// ADC digitizes analog samples.
	ADC = neural.ADC
	// Network is a runnable feed-forward DNN.
	Network = nn.Network
	// Decoder maps observations to state estimates.
	Decoder = decode.Decoder
	// KalmanDecoder is the classic linear BCI decoder.
	KalmanDecoder = decode.Kalman
)

// DefaultNeuralConfig returns the 128-channel, 2 kHz baseline interface.
func DefaultNeuralConfig() NeuralConfig { return neural.DefaultConfig() }

// NewNeuralGenerator builds a synthetic neural interface.
func NewNeuralGenerator(cfg NeuralConfig) (*NeuralGenerator, error) { return neural.New(cfg) }

// DefaultADC returns the 10-bit converter of the paper's worked examples.
func DefaultADC() ADC { return neural.DefaultADC() }

// NewRandomMLP builds a runnable dense network with Xavier-random weights:
// sizes lists the layer widths from input to output (ReLU between hidden
// layers, linear output). Useful for driving the virtual implant's
// computation-centric dataflow without a training pipeline.
func NewRandomMLP(seed int64, sizes ...int) (*Network, error) { return nn.RandomMLP(seed, sizes...) }

// FitKalman trains a Kalman decoder from (state, observation) pairs.
func FitKalman(states, obs [][]float64) (*KalmanDecoder, error) {
	return decode.FitKalman(states, obs)
}

// BinSpikeCounts converts spike logs into binned rate features.
func BinSpikeCounts(spikeLog [][]int, nSamples, binSamples int) ([][]float64, error) {
	return decode.BinSpikeCounts(spikeLog, nSamples, binSamples)
}

// Decoder evaluation helpers.
var (
	// RunDecoder feeds every observation through a decoder.
	RunDecoder = decode.Run
	// Correlation is the Pearson correlation between two scalar series.
	Correlation = decode.Correlation
	// DecodeColumn extracts one component of a decoded trajectory.
	DecodeColumn = decode.Column
)

// The virtual implant (Fig. 3).
type (
	// Implant is a running tick-driven implant pipeline.
	Implant = implant.Implant
	// ImplantConfig assembles an implant.
	ImplantConfig = implant.Config
	// ImplantStats summarizes a run.
	ImplantStats = implant.Stats
	// Dataflow selects the processing strategy.
	Dataflow = implant.Dataflow
)

// The implant dataflows of Fig. 3.
const (
	CommCentric    = implant.CommCentric
	ComputeCentric = implant.ComputeCentric
)

// DefaultImplantConfig returns a 128-channel communication-centric implant.
func DefaultImplantConfig() ImplantConfig { return implant.DefaultConfig() }

// NewImplant builds a virtual implant.
func NewImplant(cfg ImplantConfig) (*Implant, error) { return implant.New(cfg) }

// ChannelDropout configures the Section 6.2 optimization in the virtual
// implant.
type ChannelDropout = implant.Dropout

// The wearable side of the link (Fig. 1's external SoC).
type (
	// WearableReceiver validates and accounts uplink frames.
	WearableReceiver = wearable.Receiver
	// LossyLink injects bit errors into the implant → wearable path.
	LossyLink = wearable.LossyLink
)

// NewWearableReceiver returns a receiver retaining up to keepSamples of
// history per channel.
func NewWearableReceiver(keepSamples int) (*WearableReceiver, error) {
	return wearable.NewReceiver(keepSamples)
}

// NewLossyLink returns a seeded link at the given bit error rate.
func NewLossyLink(ber float64, seed int64) (*LossyLink, error) {
	return wearable.NewLossyLink(ber, seed)
}

// Observability: stateful components (Implant, WearableReceiver,
// LossyLink) accept an observer via SetObserver. All instruments are
// nil-safe, so unobserved components pay only inlined nil checks.
type Observer = obs.Observer

// NewObserver returns an observer with a fresh registry and a tracer of
// the default capacity.
func NewObserver() *Observer { return obs.New() }

// FrontEnd is one channel's NEF-characterized amplifier + ADC chain (the
// physical basis of linear sensing-power scaling).
type FrontEnd = afe.FrontEnd

// TypicalFrontEnd returns a representative recording channel.
func TypicalFrontEnd() FrontEnd { return afe.TypicalFrontEnd() }

// WPTLink is a two-coil inductive power link (Section 8).
type WPTLink = wpt.Link

// TypicalWPTLink returns a representative transcutaneous link.
func TypicalWPTLink() WPTLink { return wpt.TypicalLink() }

// Spiking neural networks (the related-work computation class).
type (
	// SNN is a feed-forward spiking network with event-driven cost
	// accounting.
	SNN = snn.Network
	// LIFParams are the leaky integrate-and-fire neuron parameters.
	LIFParams = snn.LIF
	// SpikeEncoder converts analog values to Poisson spike trains.
	SpikeEncoder = snn.PoissonEncoder
	// SNNEnergyModel prices synaptic events.
	SNNEnergyModel = snn.EnergyModel
)

// DefaultLIF returns standard neuron parameters.
func DefaultLIF() LIFParams { return snn.DefaultLIF() }

// NewRandomSNN builds a spiking network with random positive weights:
// sizes lists layer widths from input to output.
func NewRandomSNN(seed int64, params LIFParams, sizes ...int) (*SNN, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("mindful: need at least input and output sizes, got %d", len(sizes))
	}
	rng := detrand.New(seed)
	layers := make([]*snn.Layer, 0, len(sizes)-1)
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, snn.RandLayer(rng, sizes[i], sizes[i+1], params))
	}
	return snn.NewNetwork(layers...)
}

// NewSpikeEncoder returns a seeded Poisson encoder.
func NewSpikeEncoder(seed int64, maxRate float64) (*SpikeEncoder, error) {
	return snn.NewPoissonEncoder(seed, maxRate)
}

// SNNEnergyFromMAC derives the synaptic-event energy from a MAC step.
func SNNEnergyFromMAC(macStep Energy) SNNEnergyModel { return snn.EnergyFromMAC(macStep) }

// Lossless neural-data compression (the data-compressive IC approach).
var (
	// DeltaRiceEncode compresses one channel's sample trace.
	DeltaRiceEncode = dsp.DeltaRiceEncode
	// DeltaRiceDecode reverses DeltaRiceEncode.
	DeltaRiceDecode = dsp.DeltaRiceDecode
	// CompressionRatio measures raw-over-compressed bits for one trace.
	CompressionRatio = dsp.CompressionRatio
)
