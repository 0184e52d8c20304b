package comm

import (
	"fmt"
	"time"

	"mindful/internal/units"
)

// Link-layer automatic repeat request. The wearable detects missing or
// corrupt frames (CRC failure, sequence gap) and NACKs them over the
// downlink; the implant retransmits from a bounded window. The model here
// is the implant-side loop with immediate receiver feedback: one Send
// drives attempts until the frame is accepted or the budget is exhausted.
// The reverse (NACK) channel is assumed reliable and is accounted only as
// a NACK count — its energy lives on the wearable, outside the implant's
// Section 3.2 envelope. Retransmissions, by contrast, cost real implant
// energy, surfaced through ARQStats.EnergyOverhead and the per-frame
// latency they add, bounded by the config so the power and latency
// envelope holds even under sustained loss.

// ARQConfig bounds the recovery loop.
type ARQConfig struct {
	// MaxRetries is the per-frame retransmission budget (0 disables ARQ:
	// every frame is sent exactly once).
	MaxRetries int
	// SlotTime is the latency cost of one transmission attempt (frame
	// airtime + NACK turnaround). Zero disables latency accounting.
	SlotTime time.Duration
	// LatencyBudget caps the per-frame recovery latency. With a non-zero
	// SlotTime the effective retry budget is the smaller of MaxRetries
	// and the retries that fit the budget.
	LatencyBudget time.Duration
}

// Enabled reports whether the config turns recovery on.
func (c ARQConfig) Enabled() bool { return c.MaxRetries > 0 }

// Validate checks the configuration.
func (c ARQConfig) Validate() error {
	if c.MaxRetries < 0 {
		return fmt.Errorf("comm: negative ARQ retry budget %d", c.MaxRetries)
	}
	if c.SlotTime < 0 || c.LatencyBudget < 0 {
		return fmt.Errorf("comm: negative ARQ timing")
	}
	return nil
}

// EffectiveRetries returns the retry budget after applying the latency
// cap: with slot time s and budget L, at most ⌊L/s⌋ total attempts fit,
// i.e. ⌊L/s⌋−1 retries.
func (c ARQConfig) EffectiveRetries() int {
	r := c.MaxRetries
	if c.SlotTime > 0 && c.LatencyBudget > 0 {
		if byLatency := int(c.LatencyBudget/c.SlotTime) - 1; byLatency < r {
			r = byLatency
		}
	}
	if r < 0 {
		r = 0
	}
	return r
}

// ARQStats accounts the recovery loop.
type ARQStats struct {
	// Sent counts frames offered to Send; Delivered and Failed its two
	// outcomes.
	Sent      int64
	Delivered int64
	Failed    int64
	// Recovered counts frames delivered only thanks to a retransmission.
	Recovered int64
	// Retransmits counts extra transmissions beyond the first attempt;
	// RetransmitBits the on-air bits they burned.
	Retransmits    int64
	RetransmitBits int64
	// NACKs counts receiver rejections that triggered a retransmission.
	NACKs int64
}

// EnergyOverhead returns the extra radio energy retransmissions cost at a
// constant energy per bit — the quantity that must stay inside the
// Section 3.2 power envelope.
func (s ARQStats) EnergyOverhead(eb units.Energy) units.Energy {
	return units.Joules(float64(s.RetransmitBits) * eb.Joules())
}

// RecoveryRate returns Delivered/Sent (0 when nothing was sent).
func (s ARQStats) RecoveryRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Sent)
}

// Attempt transmits one frame over the unreliable link and reports
// whether the receiver accepted it. The implementation typically runs the
// full modulate → channel → demodulate → decode chain.
type Attempt func(frame []byte) bool

// ARQ is one sender's bounded recovery loop.
type ARQ struct {
	cfg     ARQConfig
	retries int
	stats   ARQStats
}

// NewARQ returns a recovery loop for the config.
func NewARQ(cfg ARQConfig) (*ARQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ARQ{cfg: cfg, retries: cfg.EffectiveRetries()}, nil
}

// Config returns the loop's configuration.
func (a *ARQ) Config() ARQConfig { return a.cfg }

// Stats returns the accounting so far.
func (a *ARQ) Stats() ARQStats { return a.stats }

// RestoreStats overwrites the accounting — used when a checkpointed
// sender is rebuilt so cumulative counters continue rather than reset.
func (a *ARQ) RestoreStats(st ARQStats) { a.stats = st }

// Send pushes one encoded frame through try until the receiver accepts it
// or the retry budget runs out. It returns the number of transmissions
// used and whether the frame was delivered. airBits is the on-air cost of
// one attempt (coded frame bits including padding), used for the
// retransmission energy accounting.
func (a *ARQ) Send(frame []byte, airBits int, try Attempt) (attempts int, delivered bool) {
	a.stats.Sent++
	for attempts = 1; ; attempts++ {
		if try(frame) {
			a.stats.Delivered++
			if attempts > 1 {
				a.stats.Recovered++
			}
			return attempts, true
		}
		if attempts > a.retries {
			a.stats.Failed++
			return attempts, false
		}
		a.stats.NACKs++
		a.stats.Retransmits++
		a.stats.RetransmitBits += int64(airBits)
	}
}

// Latency returns the recovery latency of a frame that took the given
// number of attempts (0 when SlotTime is unset).
func (a *ARQ) Latency(attempts int) time.Duration {
	return time.Duration(attempts) * a.cfg.SlotTime
}
