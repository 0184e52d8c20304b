// Package accel models the paper's DNN-layer accelerator (Fig. 9): an
// array of processing elements — each a MAC unit, a ReLU, a small FSM and a
// weight ROM — sequenced by a dataflow FSM that time-multiplexes #MAC_op
// operations over #MAC_hw physical PEs.
//
// It provides both a power model (the stand-in for the paper's Cadence
// Genus synthesis at 130 nm / 100 MHz, built from the component library in
// internal/mac and calibrated to reproduce Fig. 9's relative-PE-power
// trajectory) and a cycle-accurate functional simulator that executes real
// fixed-point arithmetic and whose cycle count is provably equal to the
// Eq. (11) timing expression the analytical framework uses.
package accel

import (
	"fmt"
	"time"

	"mindful/internal/fixed"
	"mindful/internal/mac"
	"mindful/internal/mathx"
	"mindful/internal/units"
)

// Config is one accelerator design point.
type Config struct {
	// Ops is #MAC_op: independent MAC sequences in the layer.
	Ops int
	// Seq is MAC_seq: accumulation steps per operation.
	Seq int
	// HW is #MAC_hw: physical PEs; ops are time-multiplexed over them.
	HW int
	// Bits is the datapath width (the paper synthesizes 8-bit).
	Bits int
	// Node, PE and Overhead select the technology models.
	Node     mac.TechNode
	PE       mac.PEModel
	Overhead mac.LayerOverhead
}

// NewConfig returns a design point in the paper's 130 nm / 8-bit setting.
func NewConfig(ops, seq, hw int) Config {
	return Config{
		Ops: ops, Seq: seq, HW: hw, Bits: 8,
		Node: mac.TSMC130, PE: mac.PE130, Overhead: mac.Overhead130,
	}
}

// Validate checks the design point.
func (c Config) Validate() error {
	if c.Ops <= 0 || c.Seq <= 0 || c.HW <= 0 {
		return fmt.Errorf("accel: non-positive dimensions ops=%d seq=%d hw=%d", c.Ops, c.Seq, c.HW)
	}
	if c.HW > c.Ops {
		// Eq. (12): #MAC_hw may not exceed the available parallelism.
		return fmt.Errorf("accel: hw=%d exceeds ops=%d (Eq. 12)", c.HW, c.Ops)
	}
	if c.Bits < 2 || c.Bits > 32 {
		return fmt.Errorf("accel: unsupported datapath width %d", c.Bits)
	}
	return nil
}

// Cycles returns the MAC-step count of one layer execution:
// ⌈#MAC_op/#MAC_hw⌉ · MAC_seq (the Eq. 11 schedule).
func (c Config) Cycles() int {
	return mathx.CeilDiv(c.Ops, c.HW) * c.Seq
}

// Time returns the layer latency at the node's MAC step time.
func (c Config) Time() time.Duration {
	return time.Duration(c.Cycles()) * c.Node.TMAC
}

// PEPower returns the power of the PE array: #MAC_hw · P_PE.
func (c Config) PEPower() units.Power {
	return units.Power(float64(c.HW) * c.PE.Total().Watts())
}

// OverheadPower returns the non-PE layer power: the dataflow FSM plus the
// output register file (#MAC_op registers of Bits each).
func (c Config) OverheadPower() units.Power {
	return c.Overhead.Power(c.Ops, c.Bits)
}

// TotalPower returns the layer's total power.
func (c Config) TotalPower() units.Power {
	return c.PEPower() + c.OverheadPower()
}

// PEFraction returns PE power over total power — Fig. 9's right panel.
func (c Config) PEFraction() float64 {
	return c.PEPower().Watts() / c.TotalPower().Watts()
}

// EnergyPerInference returns the active-MAC energy of one layer execution.
func (c Config) EnergyPerInference() units.Energy {
	steps := float64(c.Ops) * float64(c.Seq)
	return units.Energy(steps * c.Node.EnergyPerStep().Joules())
}

// Fig9DesignPoints returns the twelve synthesis configurations of Fig. 9
// in order.
func Fig9DesignPoints() []Config {
	rows := [][3]int{ // seq, hw, ops
		{256, 4, 4}, {256, 4, 8}, {256, 4, 16}, {256, 4, 32}, {256, 4, 64},
		{256, 8, 64}, {256, 16, 64}, {256, 32, 64}, {256, 64, 64},
		{512, 128, 128}, {1024, 256, 256}, {2048, 512, 512},
	}
	out := make([]Config, len(rows))
	for i, r := range rows {
		out[i] = NewConfig(r[2], r[0], r[1])
	}
	return out
}

// Simulator is the cycle-accurate functional model of one configured
// layer: HW processing elements, each with a private weight ROM holding
// the rows it is responsible for, executing under the dataflow FSM's
// static schedule (PE p computes ops p, p+HW, p+2HW, …).
type Simulator struct {
	cfg    Config
	format fixed.Format
	// rom[op] is the weight row of operation op (length Seq).
	rom [][]fixed.Value
	// relu applies the PE's ReLU stage at readout.
	relu bool

	cycles uint64
	energy float64 // joules
}

// NewSimulator builds a simulator for cfg with the given weight matrix
// (Ops rows × Seq columns, already in fixed point) and ReLU setting.
func NewSimulator(cfg Config, weights [][]fixed.Value, relu bool) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(weights) != cfg.Ops {
		return nil, fmt.Errorf("accel: %d weight rows for %d ops", len(weights), cfg.Ops)
	}
	for i, row := range weights {
		if len(row) != cfg.Seq {
			return nil, fmt.Errorf("accel: weight row %d length %d != seq %d", i, len(row), cfg.Seq)
		}
	}
	f := fixed.Format{Bits: cfg.Bits, Frac: cfg.Bits - 1}
	return &Simulator{cfg: cfg, format: f, rom: weights, relu: relu}, nil
}

// Format returns the datapath fixed-point format.
func (s *Simulator) Format() fixed.Format { return s.format }

// Run executes one inference: input is the shared activation vector
// (length Seq), and the result is one value per MAC_op. The cycle counter
// advances exactly Config.Cycles() per call.
func (s *Simulator) Run(input []fixed.Value) ([]fixed.Value, error) {
	if len(input) != s.cfg.Seq {
		return nil, fmt.Errorf("accel: input length %d != seq %d", len(input), s.cfg.Seq)
	}
	out := make([]fixed.Value, s.cfg.Ops)
	passes := mathx.CeilDiv(s.cfg.Ops, s.cfg.HW)
	acc := fixed.NewAcc(s.format)
	for pass := 0; pass < passes; pass++ {
		for pe := 0; pe < s.cfg.HW; pe++ {
			op := pass*s.cfg.HW + pe
			if op >= s.cfg.Ops {
				continue // idle PE in the final pass
			}
			acc.Reset()
			for k := 0; k < s.cfg.Seq; k++ {
				acc.MAC(input[k], s.rom[op][k])
			}
			v := acc.Value()
			if s.relu && v.Raw < 0 {
				v.Raw = 0
			}
			out[op] = v
			s.energy += float64(s.cfg.Seq) * s.cfg.Node.EnergyPerStep().Joules()
		}
		// All PEs advance in lockstep: one pass costs Seq cycles even if
		// some PEs idle.
		s.cycles += uint64(s.cfg.Seq)
	}
	return out, nil
}

// RunExact executes one inference like Run but reads each operation's
// wide accumulator directly (the 32-bit register every PE holds before the
// output stage), returning exact real values instead of requantized
// operand-format ones. The datapath is still bits×bits multiplies with
// exact accumulation; only the lossy output rounding is deferred to the
// caller — which is where a real accelerator's bias/activation/rescale
// stage lives. ReLU, being part of that output stage, is not applied here.
func (s *Simulator) RunExact(input []fixed.Value) ([]float64, error) {
	if len(input) != s.cfg.Seq {
		return nil, fmt.Errorf("accel: input length %d != seq %d", len(input), s.cfg.Seq)
	}
	out := make([]float64, s.cfg.Ops)
	passes := mathx.CeilDiv(s.cfg.Ops, s.cfg.HW)
	acc := fixed.NewAcc(s.format)
	for pass := 0; pass < passes; pass++ {
		for pe := 0; pe < s.cfg.HW; pe++ {
			op := pass*s.cfg.HW + pe
			if op >= s.cfg.Ops {
				continue
			}
			acc.Reset()
			for k := 0; k < s.cfg.Seq; k++ {
				acc.MAC(input[k], s.rom[op][k])
			}
			out[op] = acc.Float()
			s.energy += float64(s.cfg.Seq) * s.cfg.Node.EnergyPerStep().Joules()
		}
		s.cycles += uint64(s.cfg.Seq)
	}
	return out, nil
}

// Cycles returns the cycles consumed so far.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// Elapsed returns simulated wall-clock time.
func (s *Simulator) Elapsed() time.Duration {
	return time.Duration(s.cycles) * s.cfg.Node.TMAC
}

// Energy returns the accumulated active-MAC energy.
func (s *Simulator) Energy() units.Energy { return units.Energy(s.energy) }

// MeetsDeadline reports whether one inference fits within t — the check
// the real-time constraint (Eq. 11) imposes.
func (c Config) MeetsDeadline(t time.Duration) bool { return c.Time() <= t }
