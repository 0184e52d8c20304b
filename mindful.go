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
//     the 1–2 °C limit from first principles (PowerBudget, SafetyCheck,
//     ThermalModel).
//   - Communication and computation models: OOK/QAM link budgets
//     (NewQAM, NominalLinkBudget), DNN workload templates and the MAC
//     lower-bound scheduler (MLPTemplate, DNCNNTemplate, NewEvaluator).
//   - The virtual implant: a tick-driven pipeline that runs synthetic
//     cortical data through ADC, packetizer or on-implant network, and a
//     constant-Eb radio, with live power and safety accounting
//     (NewImplant).
//
// The cmd/mindful tool regenerates every table and figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md for the experiment index.
package mindful

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"mindful/internal/afe"
	"mindful/internal/chaosnet"
	"mindful/internal/cluster"
	"mindful/internal/cluster/store"
	"mindful/internal/comm"
	"mindful/internal/decode"
	"mindful/internal/dnnmodel"
	"mindful/internal/drift"
	"mindful/internal/dsp"
	"mindful/internal/fault"
	"mindful/internal/fleet"
	"mindful/internal/implant"
	"mindful/internal/mac"
	"mindful/internal/neural"
	"mindful/internal/nn"
	"mindful/internal/obs"
	"mindful/internal/optimize"
	"mindful/internal/sched"
	"mindful/internal/serve"
	"mindful/internal/serve/checkpoint"
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
	Microwatts        = units.Microwatts
	SquareMillimetres = units.SquareMillimetres
	MilliwattsPerCM2  = units.MilliwattsPerCM2
	PicojoulesPerBit  = units.PicojoulesPerBit
	MegabitsPerSecond = units.MegabitsPerSecond
	Kilohertz         = units.Kilohertz
)

// Design database and scaling (Section 4).
type (
	// Design is one published implanted SoC (a Table 1 row).
	Design = soc.Design
	// DesignPoint is a (channels, area, power) point.
	DesignPoint = soc.Point
	// Baseline is a design scaled to 1024 channels and decomposed into
	// sensing and non-sensing shares.
	Baseline = soc.Baseline
)

// StandardChannels is the current 1024-channel NI standard.
const StandardChannels = soc.StandardChannels

// SampleBits is the digitized sample width d used in the paper's examples.
const SampleBits = soc.SampleBits

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
	// Assessment is one priced computation-centric point.
	Assessment = optimize.Assessment
	// OptimizationStep is a Section 6.2 cumulative optimization bundle.
	OptimizationStep = optimize.Step
)

// Technology nodes.
var (
	TSMC130   = mac.TSMC130
	NanGate45 = mac.NanGate45
	Node12nm  = mac.Node12
)

// MLPTemplate returns the paper's MLP workload family.
func MLPTemplate() DNNTemplate { return dnnmodel.MLP() }

// DNCNNTemplate returns the paper's densely connected CNN workload family.
func DNCNNTemplate() DNNTemplate { return dnnmodel.DNCNN() }

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
func NewRandomMLP(seed int64, sizes ...int) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("mindful: need at least input and output sizes, got %d", len(sizes))
	}
	rng := rand.New(rand.NewSource(seed))
	layers := make([]nn.Layer, 0, len(sizes)-1)
	for i := 0; i+1 < len(sizes); i++ {
		act := nn.ReLU
		if i+2 == len(sizes) {
			act = nn.Identity
		}
		layers = append(layers, nn.RandDense(rng, sizes[i], sizes[i+1], act))
	}
	return nn.NewNetwork(1, sizes[0], layers...)
}

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

// The implant dataflows: Fig. 3's pair plus the reduced-rate strategies.
const (
	CommCentric    = implant.CommCentric
	ComputeCentric = implant.ComputeCentric
	FeatureCentric = implant.FeatureCentric
	SpikeCentric   = implant.SpikeCentric
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

// Concealment strategies for gaps in the received frame stream.
type Concealment = wearable.Concealment

// The gap-concealment strategies. Concealed frames carry FrameFlagConcealed.
const (
	ConcealNone   = wearable.ConcealNone
	ConcealHold   = wearable.ConcealHold
	ConcealInterp = wearable.ConcealInterp
)

// FrameFlagConcealed marks a receiver-synthesized frame.
const FrameFlagConcealed = comm.FlagConcealed

// Fault injection and link-layer recovery (the robustness layer).
type (
	// FaultProfile describes a deterministic fault environment (burst
	// link, whole-frame loss, electrode faults, brownouts).
	FaultProfile = fault.Profile
	// FaultInjector bundles one pipeline's seeded fault processes.
	FaultInjector = fault.Injector
	// BurstLink is a seeded Gilbert–Elliott burst channel.
	BurstLink = fault.BurstLink
	// ElectrodeBank applies per-channel front-end faults.
	ElectrodeBank = fault.ElectrodeBank
	// Brownout blanks the transmitter for tick windows.
	Brownout = fault.Brownout
	// ARQConfig bounds the link-layer retransmission loop.
	ARQConfig = comm.ARQConfig
	// ARQ is one sender's bounded recovery loop.
	ARQ = comm.ARQ
	// ARQStats accounts retransmissions and their energy cost.
	ARQStats = comm.ARQStats
	// FEC is the Hamming(7,4) + block-interleaving codec.
	FEC = comm.FEC
)

// DefaultFaultProfile returns the harsh unit-intensity environment fault
// sweeps scale down from.
func DefaultFaultProfile() FaultProfile { return fault.DefaultProfile() }

// NewFaultInjector builds the fault processes for one pipeline from
// independent seeds (e.g. via DeriveSeed streams 2–4).
func NewFaultInjector(p FaultProfile, channels int, linkSeed, electrodeSeed, brownoutSeed int64) (*FaultInjector, error) {
	return fault.NewInjector(p, channels, linkSeed, electrodeSeed, brownoutSeed)
}

// NewBurstLink returns a seeded Gilbert–Elliott link for the profile's
// channel parameters.
func NewBurstLink(p FaultProfile, seed int64) (*BurstLink, error) {
	return fault.NewBurstLink(p, seed)
}

// NewARQ returns a bounded link-layer recovery loop.
func NewARQ(cfg ARQConfig) (*ARQ, error) { return comm.NewARQ(cfg) }

// NewFEC returns a Hamming(7,4) codec at the given interleaver depth.
func NewFEC(depth int) (*FEC, error) { return comm.NewFEC(depth) }

// Fleet simulation: many independent implant → modem → AWGN → wearable
// pipelines run concurrently over a worker pool, with SplitMix64-sharded
// seeds so the aggregate is bit-identical for any worker count.
type (
	// FleetConfig describes one fleet run.
	FleetConfig = fleet.Config
	// FleetAggregate is the fleet-wide summary.
	FleetAggregate = fleet.Aggregate
	// FleetImplantResult is one implant pipeline's outcome.
	FleetImplantResult = fleet.ImplantResult
	// FleetSweep is a degradation curve over fault intensities.
	FleetSweep = fleet.Sweep
	// FleetSweepPoint is one intensity sample of a degradation curve.
	FleetSweepPoint = fleet.SweepPoint
)

// DefaultFleetConfig returns a small 8-implant fleet under 16-QAM at a
// noisy operating point.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// RunFleet executes a fleet and reduces the per-implant results in index
// order; the deterministic fields never depend on Workers.
func RunFleet(cfg FleetConfig) (*FleetAggregate, error) { return fleet.Run(cfg) }

// RunFleetFaultSweep runs one fleet per intensity, scaling the base fault
// profile, and reduces the degradation curve (delivery rate, concealed
// fraction, effective BER vs intensity). The curve is bit-identical for
// any worker count.
func RunFleetFaultSweep(cfg FleetConfig, base FaultProfile, intensities []float64) (*FleetSweep, error) {
	return fleet.RunFaultSweep(cfg, base, intensities)
}

// DeriveSeed maps (base seed, implant index, stream tag) to an
// independent RNG seed via SplitMix64 splitting.
func DeriveSeed(base int64, index, stream uint64) int64 {
	return fleet.DeriveSeed(base, index, stream)
}

// Stage graph: the pipeline is a fixed-order chain of snapshot-aware
// stages (source → transport → receiver → decode) sharing one Tick
// record per step. The decode stage is optional and purely downstream —
// enabling it never changes the frame digests.
type (
	// PipelineStage is one snapshot-aware pipeline segment.
	PipelineStage = fleet.Stage
	// PipelineTick is the dataflow record one Step threads through the
	// stages.
	PipelineTick = fleet.Tick
	// FleetDecodeConfig attaches a kinematics decoder to every implant's
	// wearable.
	FleetDecodeConfig = fleet.DecodeConfig
	// FleetDecoderKind selects the decoder family.
	FleetDecoderKind = fleet.DecoderKind
	// FleetDecodeState is a decode stage's serializable state.
	FleetDecodeState = fleet.DecodeState
)

// Decoder kinds for FleetDecodeConfig.Kind.
const (
	FleetDecoderNone   = fleet.DecoderNone
	FleetDecoderKalman = fleet.DecoderKalman
	FleetDecoderWiener = fleet.DecoderWiener
	FleetDecoderDNN    = fleet.DecoderDNN
)

// ParseDecoderKind maps a decoder name ("none", "kalman", "wiener",
// "dnn") to its kind.
func ParseDecoderKind(name string) (FleetDecoderKind, error) {
	return fleet.ParseDecoderKind(name)
}

// Observability: the cross-cutting metrics and tracing layer. Stateful
// components (Implant, WearableReceiver, LossyLink) accept an observer via
// SetObserver; the scheduler's free functions use SetSchedulerObserver;
// modems are wrapped with ObserveModem. All instruments are nil-safe, so
// unobserved components pay only inlined nil checks.
type (
	// Observer bundles a metrics registry and a span tracer.
	Observer = obs.Observer
	// MetricsRegistry is the lock-cheap labeled metrics registry, with
	// Prometheus-text and JSON-lines exporters.
	MetricsRegistry = obs.Registry
	// MetricLabel is one key/value metric label.
	MetricLabel = obs.Label
	// Tracer records spans into a bounded ring buffer.
	Tracer = obs.Tracer
	// TraceSpan is one recorded span.
	TraceSpan = obs.Span
	// ObservedModem wraps a Modem with link-quality accounting.
	ObservedModem = comm.ObservedModem
	// Histogram is the atomic-bucket histogram with quantile estimation.
	Histogram = obs.Histogram
	// StageTimer attributes per-stage wall time across a pipeline; attach
	// one via FleetConfig.StageTiming (digest-neutral).
	StageTimer = obs.StageTimer
	// StageClock is one stage's nil-safe timing instrument.
	StageClock = obs.StageClock
	// StageStats is one stage's timing summary (count, mean, EWMA, p50,
	// p99 in nanoseconds).
	StageStats = obs.StageStats
	// EventLog is the flight recorder's bounded structured event log.
	EventLog = obs.EventLog
	// Event is one recorded flight-recorder event.
	Event = obs.Event
	// EventAttr is one numeric event attribute.
	EventAttr = obs.EventAttr
	// StageProfile is a fleet run's per-stage ns/frame breakdown (the
	// BENCH_stage.json schema).
	StageProfile = fleet.StageProfile
	// FleetScalingPoint is one worker count's throughput on a fixed fleet.
	FleetScalingPoint = fleet.ScalingPoint
)

// NewObserver returns an observer with a fresh registry and a tracer of
// the default capacity.
func NewObserver() *Observer { return obs.New() }

// NewHistogram returns a histogram over the given ascending bucket
// bounds; ExpBuckets builds exponential bounds.
func NewHistogram(bounds []float64) *Histogram { return obs.NewHistogram(bounds) }

// ExpBuckets returns n exponential bucket bounds starting at start.
func ExpBuckets(start, factor float64, n int) []float64 { return obs.ExpBuckets(start, factor, n) }

// NewStageTimer returns an empty per-stage timing registry.
func NewStageTimer() *StageTimer { return obs.NewStageTimer() }

// NewEventLog returns a flight-recorder event log keeping the newest
// capacity events.
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// RunFleetProfile runs the fleet with stage timing attached and returns
// the per-stage breakdown alongside the (digest-identical) aggregate.
func RunFleetProfile(cfg FleetConfig) (*StageProfile, *FleetAggregate, error) {
	return fleet.RunProfile(cfg)
}

// MeasureFleetScaling runs the same fleet at each worker count and
// returns the throughput curve, failing if any point's digest diverges.
func MeasureFleetScaling(cfg FleetConfig, workerCounts []int) ([]FleetScalingPoint, error) {
	return fleet.MeasureScaling(cfg, workerCounts)
}

// ObserveModem wraps a modem so its traffic is accounted in o's registry,
// labeled by modulation name.
func ObserveModem(m Modem, o *Observer) *ObservedModem { return comm.ObserveModem(m, o) }

// SetSchedulerObserver wires the scheduling lower-bound solver to an
// observability sink; pass nil to detach.
func SetSchedulerObserver(o *Observer) { sched.SetObserver(o) }

// ServeDebug serves /metrics, /metrics.json, /trace, expvar and
// net/http/pprof for o on addr ("host:port"; port 0 picks one). It returns
// the bound address and a stop function.
func ServeDebug(addr string, o *Observer) (string, func() error, error) {
	return obs.ServeDebug(addr, o)
}

// Analog front end (the physical basis of linear sensing-power scaling).
type (
	// Amplifier is a NEF-characterized low-noise neural amplifier.
	Amplifier = afe.Amplifier
	// FrontEnd is one channel's amplifier + ADC chain.
	FrontEnd = afe.FrontEnd
)

// TypicalFrontEnd returns a representative recording channel.
func TypicalFrontEnd() FrontEnd { return afe.TypicalFrontEnd() }

// Wireless power transfer (Section 8).
type (
	// WPTLink is a two-coil inductive power link.
	WPTLink = wpt.Link
	// WPTDelivery is one power-transfer operating point.
	WPTDelivery = wpt.Delivery
)

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
	rng := rand.New(rand.NewSource(seed))
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

// Serving: the streaming session gateway. Each session hosts one
// steppable implant pipeline behind a JSON/HTTP control plane and a
// length-prefixed binary TCP data plane with bounded subscriber queues
// (drop-oldest backpressure, stall eviction). Sessions checkpoint to a
// versioned binary blob and restore bit-identically.
type (
	// ServeConfig describes one gateway.
	ServeConfig = serve.Config
	// ServeServer is a running gateway.
	ServeServer = serve.Server
	// ServeSessionInfo is the control plane's view of one session.
	ServeSessionInfo = serve.SessionInfo
	// ServeRecord is one decoded data-plane record.
	ServeRecord = serve.Record
	// ServeLoadConfig describes one load-generation run.
	ServeLoadConfig = serve.LoadConfig
	// ServeLoadResult summarizes a load run (the BENCH_serve schema).
	ServeLoadResult = serve.LoadResult
	// SessionConfig configures one hosted pipeline session.
	SessionConfig = checkpoint.SessionConfig
	// Checkpoint is a decoded session snapshot.
	Checkpoint = checkpoint.Checkpoint
	// Pipeline is one steppable implant → modem → AWGN → wearable chain.
	Pipeline = fleet.Pipeline
	// PipelineState is a pipeline's full serializable state.
	PipelineState = fleet.PipelineState
)

// NewServeServer returns an unstarted gateway; Start binds its planes.
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// ServeSubscribe opens a data-plane connection and subscribes to a
// session; read records from the returned reader with ReadServeRecord.
var ServeSubscribe = serve.Subscribe

// ServeSubscribeDecoded subscribes to a session's decoded-kinematics
// stream (sessions created with a decoder only).
var ServeSubscribeDecoded = serve.SubscribeDecoded

// ServeDecodeEstimates unpacks a decoded record's payload into the
// decoder's state estimate.
var ServeDecodeEstimates = serve.DecodeEstimates

// ReadServeRecord reads one record from a subscribed stream; io.EOF
// marks a clean end of stream.
var ReadServeRecord = serve.ReadRecord

// RunServeLoad executes a load scenario against a gateway (self-hosting
// one when cfg.Server is nil) and returns its measurements.
func RunServeLoad(cfg ServeLoadConfig) (*ServeLoadResult, error) { return serve.RunLoad(cfg) }

// DefaultServeLoadConfig returns the BENCH_serve baseline scenario.
func DefaultServeLoadConfig() ServeLoadConfig { return serve.DefaultLoadConfig() }

// Cluster serving: a sharded front tier over N gateways. Session keys
// consistent-hash onto shards over a virtual-node ring; the control
// plane proxies to the owner, the data plane redirects subscribers
// (`MOVED`), and sessions migrate live between shards by checkpoint
// transfer — bit-identically, with paused-state preservation and
// checkpoint-based recovery when a shard dies.
type (
	// ClusterConfig describes the front tier and its shard template.
	ClusterConfig = cluster.Config
	// ClusterServer is a running front tier.
	ClusterServer = cluster.Cluster
	// ClusterLoadConfig describes one cluster load-generation run.
	ClusterLoadConfig = cluster.LoadConfig
	// ClusterLoadResult summarizes a cluster load run (the
	// BENCH_cluster schema).
	ClusterLoadResult = cluster.LoadResult
	// Ring is the consistent-hash ring the front tier places with.
	Ring = cluster.Ring
)

// NewCluster returns an unstarted front tier; Start binds its planes,
// then AddShard/JoinShard populate the ring.
func NewCluster(cfg ClusterConfig) (*ClusterServer, error) { return cluster.New(cfg) }

// NewRing builds a consistent-hash ring over the given shard IDs with
// vnodes virtual nodes per shard (0 = default).
func NewRing(shardIDs []string, vnodes int) (*Ring, error) { return cluster.NewRing(shardIDs, vnodes) }

// RunClusterLoad drives a self-hosted sharded front tier at fleet
// scale — live migrations and an optional shard kill/recovery mid-run —
// and returns its measurements.
func RunClusterLoad(cfg ClusterLoadConfig) (*ClusterLoadResult, error) { return cluster.RunLoad(cfg) }

// DefaultClusterLoadConfig returns the BENCH_cluster baseline scenario.
func DefaultClusterLoadConfig() ClusterLoadConfig { return cluster.DefaultLoadConfig() }

// Chaos hardening: deterministic network fault injection and the
// machinery that survives it. A chaosnet transport drops, resets, cuts,
// delays or partitions control-plane calls on a schedule fully
// determined by (seed, operation, attempt) — common-random-number
// semantics, so intensities nest. The cluster answers with
// retry/backoff + idempotency keys, a reconciliation janitor, and a
// durable CRC-framed checkpoint store that survives front-tier
// restarts.
type (
	// ChaosProfile holds per-fate fault probabilities at intensity 1.
	ChaosProfile = chaosnet.Profile
	// ChaosTransport is a seeded fault-injecting http.RoundTripper.
	ChaosTransport = chaosnet.Transport
	// ChaosProxy is a seeded fault-injecting TCP proxy (data plane).
	ChaosProxy = chaosnet.Proxy
	// ChaosStats counts injected faults by fate.
	ChaosStats = chaosnet.Stats
	// ChaosSweep is a survival/latency sweep across a fault-intensity
	// ladder (the BENCH_chaos schema).
	ChaosSweep = cluster.ChaosSweep
	// ChaosSweepPoint is one intensity's load-run result.
	ChaosSweepPoint = cluster.SweepPoint
	// ClusterAuditReport is the invariant auditor's findings: exactly
	// one copy of each routed session, in its intended run state.
	ClusterAuditReport = cluster.AuditReport
	// CheckpointStore is the durable per-session checkpoint store
	// (CRC32C frames, atomic renames, generation fallback).
	CheckpointStore = store.Store
	// CheckpointRecord is one stored checkpoint frame.
	CheckpointRecord = store.Record
)

// DefaultChaosProfile returns the standard fault mix at intensity 1.
func DefaultChaosProfile() ChaosProfile { return chaosnet.DefaultProfile() }

// NewChaosTransport wraps inner (nil = http.DefaultTransport) with
// seeded fault injection; SetIntensity scales the profile without
// changing the underlying draw schedule.
func NewChaosTransport(inner http.RoundTripper, prof ChaosProfile, seed int64) (*ChaosTransport, error) {
	return chaosnet.NewTransport(inner, prof, seed)
}

// NewChaosProxy listens on addr and forwards to upstream with seeded
// connection-level fault injection.
func NewChaosProxy(addr, upstream string, prof ChaosProfile, seed int64) (*ChaosProxy, error) {
	return chaosnet.NewProxy(addr, upstream, prof, seed)
}

// OpenCheckpointStore opens (creating if needed) a durable checkpoint
// store rooted at dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return store.Open(dir) }

// RunChaosSweep reruns a cluster load scenario at each fault intensity
// with a common chaos seed and collects survival, migration-success,
// retry and latency curves.
func RunChaosSweep(base ClusterLoadConfig, intensities []float64, seed int64) (*ChaosSweep, error) {
	return cluster.RunChaosSweep(base, intensities, seed)
}

// DefaultChaosIntensities returns the standard sweep ladder.
func DefaultChaosIntensities() []float64 { return cluster.DefaultSweepIntensities() }

// Nonstationarity and closed-loop recalibration: a seeded drift process
// walks each unit's tuning, gain and baseline across synthetic
// recording days (with unit turnover and loss) under common-random-
// number semantics — Scale(0) is a byte-identical no-op and intensity
// ladders nest. A KL-divergence instability meter scores the binned
// rate field against a frozen reference window, and a CLDA
// recalibrator periodically refits linear decoders in place from a
// bounded ring of (rates, intended-kinematics) supervision.
type (
	// DriftProfile parameterizes the per-epoch nonstationarity walk.
	DriftProfile = drift.Profile
	// DriftProcess is one implant's seeded drift state machine.
	DriftProcess = drift.Process
	// InstabilityMeter is the reference-vs-recent KL divergence meter.
	InstabilityMeter = drift.Meter
	// RecalConfig holds the CLDA refit knobs (cadence, ring size,
	// blend, label jitter).
	RecalConfig = decode.RecalConfig
	// Recalibrator refits a linear decoder in place from recent
	// supervision.
	Recalibrator = decode.Recalibrator
	// DriftSweepResult is the frozen-vs-adaptive intensity sweep (the
	// BENCH_drift schema).
	DriftSweepResult = fleet.DriftSweep
	// DriftSweepPoint is one intensity's paired-arm measurements.
	DriftSweepPoint = fleet.DriftPoint
)

// DefaultDriftProfile returns a mild general-purpose drift profile.
func DefaultDriftProfile() DriftProfile { return drift.DefaultProfile() }

// DefaultDriftSweepProfile returns the rotation/turnover-dominant
// profile the tracked BENCH_drift baseline sweeps over.
func DefaultDriftSweepProfile() DriftProfile { return fleet.DefaultSweepProfile() }

// NewDriftProcess attaches a seeded drift process to a generator.
func NewDriftProcess(p DriftProfile, g *neural.Generator, seed int64) (*DriftProcess, error) {
	return drift.NewProcess(p, g, seed)
}

// NewInstabilityMeter builds a KL instability meter over channels with
// the given reference- and recent-window sizes (in bins).
func NewInstabilityMeter(channels, refBins, winBins int) (*InstabilityMeter, error) {
	return drift.NewMeter(channels, refBins, winBins)
}

// NewRecalibrator wraps a refittable linear decoder in a CLDA loop.
func NewRecalibrator(d Decoder, cfg RecalConfig) (*Recalibrator, error) {
	return decode.NewRecalibrator(d, cfg)
}

// RunDriftSweep runs the frozen-vs-adaptive decoder comparison across a
// drift-intensity ladder (nil intensities = the standard 0…1 ladder).
func RunDriftSweep(cfg FleetConfig, base DriftProfile, intensities []float64) (*DriftSweepResult, error) {
	return fleet.RunDriftSweep(cfg, base, intensities)
}

// NewPipeline builds one steppable implant pipeline (implant idx of a
// fleet configuration).
func NewPipeline(cfg FleetConfig, idx, worker int) (*Pipeline, error) {
	return fleet.NewPipeline(cfg, idx, worker)
}

// RestorePipeline rebuilds a pipeline from a snapshot taken under the
// same configuration; it continues bit-identically.
func RestorePipeline(cfg FleetConfig, st PipelineState) (*Pipeline, error) {
	return fleet.RestorePipeline(cfg, st)
}

// EncodeCheckpoint serializes a session checkpoint to its versioned
// binary form.
func EncodeCheckpoint(cp Checkpoint) []byte { return checkpoint.Encode(cp) }

// DecodeCheckpoint parses a checkpoint blob, rejecting malformed,
// truncated or trailing bytes.
func DecodeCheckpoint(buf []byte) (Checkpoint, error) { return checkpoint.Decode(buf) }

// Lossless neural-data compression (the data-compressive IC approach).
var (
	// DeltaRiceEncode compresses one channel's sample trace.
	DeltaRiceEncode = dsp.DeltaRiceEncode
	// DeltaRiceDecode reverses DeltaRiceEncode.
	DeltaRiceDecode = dsp.DeltaRiceDecode
	// CompressionRatio measures raw-over-compressed bits for one trace.
	CompressionRatio = dsp.CompressionRatio
)
