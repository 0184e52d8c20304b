package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"mindful/internal/comm"
	"mindful/internal/fault"
	"mindful/internal/obs"
	"mindful/internal/units"
	"mindful/internal/wearable"
)

// testConfig returns a small fleet that still exercises frame corruption
// (12 dB 16-QAM leaves a measurable BER).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Implants = 6
	cfg.Ticks = 32
	cfg.Channels = 16
	return cfg
}

// deterministicFields strips the wall-clock fields so aggregates can be
// compared for byte identity.
func deterministicFields(a *Aggregate) Aggregate {
	out := *a
	out.Workers = 0
	out.Elapsed = 0
	out.FramesPerSecond = 0
	out.PerImplant = nil
	return out
}

// faultConfig returns the wall's fault-enabled scenario: the full harsh
// profile with ARQ, FEC and concealment all active, so every recovery
// path runs under the race detector.
func faultConfig() Config {
	cfg := testConfig()
	p := fault.DefaultProfile()
	cfg.Faults = &p
	cfg.ARQ = comm.ARQConfig{MaxRetries: 2, SlotTime: time.Millisecond, LatencyBudget: 8 * time.Millisecond}
	cfg.FECDepth = 4
	cfg.Concealment = wearable.ConcealHold
	return cfg
}

// TestFleetDeterminismWall is the determinism wall: the same seed must
// produce byte-identical aggregates for every worker count, including
// under -race (the tier-1.5 gate runs this file with the race detector).
// The wall covers both the clean pipeline and the fully fault-enabled
// one (burst link + brownouts + electrode faults + ARQ + FEC +
// concealment).
func TestFleetDeterminismWall(t *testing.T) {
	timed := faultConfig()
	timed.Decode = DecodeConfig{Kind: DecoderKalman}
	timed.StageTiming = obs.NewStageTimer()
	drifting := faultConfig()
	driftProf := driftProfile()
	drifting.Drift = &driftProf
	drifting.Decode = DecodeConfig{Kind: DecoderKalman}
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"clean", testConfig()},
		{"faults", faultConfig()},
		// The flight recorder's digest-neutrality contract: the wall must
		// hold with the timing decorator wrapping all four stages (the
		// timer is shared across every worker-count run — it accumulates
		// wall time, never touches the simulation).
		{"timed", timed},
		{"drift", drifting},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Frames+ref.Blanked != int64(cfg.Implants*cfg.Ticks) {
				t.Fatalf("frames %d + blanked %d, want %d", ref.Frames, ref.Blanked, cfg.Implants*cfg.Ticks)
			}
			if ref.BitErrors == 0 {
				t.Fatal("operating point produced zero bit errors; the wall would not exercise the noisy path")
			}
			if cfg.Faults != nil && ref.LinkDropped == 0 && ref.Blanked == 0 {
				t.Fatal("fault scenario injected nothing; the wall would not exercise the recovery path")
			}
			want := deterministicFields(ref)
			for _, workers := range []int{1, 2, 4, 8} {
				workers := workers
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					t.Parallel()
					c := cfg
					c.Workers = workers
					got, err := Run(c)
					if err != nil {
						t.Fatal(err)
					}
					if g := deterministicFields(got); !reflect.DeepEqual(g, want) {
						t.Errorf("workers=%d aggregate diverged:\n got %+v\nwant %+v", workers, g, want)
					}
					// Per-implant results must match field-for-field too (modulo
					// the worker assignment, which legitimately changes).
					for i := range got.PerImplant {
						g, w := got.PerImplant[i], ref.PerImplant[i]
						g.Worker, w.Worker = 0, 0
						if g != w {
							t.Errorf("workers=%d implant %d diverged:\n got %+v\nwant %+v", workers, i, g, w)
						}
					}
				})
			}
		})
	}
}

// TestFleetSeedSensitivity checks that different base seeds actually
// change the output (the digest is not vacuous).
func TestFleetSeedSensitivity(t *testing.T) {
	cfg := testConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("digest %#x identical across seeds", a.Digest)
	}
}

// TestFleetModulations runs the wall's core identity check across every
// supported modem family.
func TestFleetModulations(t *testing.T) {
	for _, m := range []comm.Modulation{comm.OOK{}, comm.NewQAM(1), comm.NewQAM(2), comm.NewQAM(6)} {
		cfg := testConfig()
		cfg.Implants = 3
		cfg.Ticks = 8
		cfg.Modulation = m
		cfg.Workers = 1
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		cfg.Workers = 3
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %#x (1 worker) != %#x (3 workers)", m.Name(), a.Digest, b.Digest)
		}
	}
}

// TestFleetObserverShards checks the shard-labeled metrics reduce to the
// same totals as the aggregate.
func TestFleetObserverShards(t *testing.T) {
	cfg := testConfig()
	cfg.Observer = obs.New()
	cfg.Workers = 3
	agg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64
	for w := 0; w < cfg.Workers; w++ {
		lbl := obs.Label{Key: "shard", Value: string(rune('0' + w))}
		frames += cfg.Observer.Metrics.Counter("fleet_frames_total", lbl).Value()
	}
	if frames != agg.Frames {
		t.Errorf("shard frame counters sum to %d, aggregate has %d", frames, agg.Frames)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for base := int64(0); base < 3; base++ {
		for idx := uint64(0); idx < 64; idx++ {
			for stream := uint64(0); stream < 3; stream++ {
				s := DeriveSeed(base, idx, stream)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and %s both map to %d", base, idx, stream, prev, s)
				}
				seen[s] = string(rune('a'))
				if s2 := DeriveSeed(base, idx, stream); s2 != s {
					t.Fatalf("DeriveSeed not pure: %d vs %d", s, s2)
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Implants = 0 },
		func(c *Config) { c.Ticks = 0 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.SampleRate = units.Hertz(0) },
		func(c *Config) { c.SampleBits = 0 },
		func(c *Config) { c.SampleBits = 17 },
		func(c *Config) { c.Modulation = nil },
		func(c *Config) { c.Modulation = comm.NewQAM(3) }, // non-square QAM has no modem
		// Eb/N0 values whose linear value (or its reciprocal) is not
		// finite and positive would crash or poison the AWGN channel.
		func(c *Config) { c.EbN0dB = math.NaN() },
		func(c *Config) { c.EbN0dB = math.Inf(1) },
		func(c *Config) { c.EbN0dB = math.Inf(-1) },
		func(c *Config) { c.EbN0dB = -4000 },
		func(c *Config) { c.EbN0dB = 4000 },
		func(c *Config) { c.EbN0dB = -3090 }, // denormal linear value, infinite N0
		// Sizes past their bounds would exhaust memory while the
		// pipeline is built (1e12 Hz asks apTemplate for ~9.6 GB).
		func(c *Config) { c.Channels = MaxChannels + 1 },
		func(c *Config) { c.SampleRate = units.Hertz(MaxSampleRateHz + 1) },
		func(c *Config) { c.SampleRate = units.Hertz(1e12) },
		func(c *Config) { c.SampleRate = units.Hertz(math.NaN()) },
		func(c *Config) { c.Decode = DecodeConfig{Kind: DecoderKalman, Track: true, MeterRef: MaxMeterBins + 1} },
		func(c *Config) { c.Decode = DecodeConfig{Kind: DecoderKalman, Track: true, MeterWin: MaxMeterBins + 1} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	atBounds := DefaultConfig()
	atBounds.Channels = MaxChannels
	atBounds.SampleRate = units.Hertz(MaxSampleRateHz)
	atBounds.Decode = DecodeConfig{Kind: DecoderKalman, Track: true, MeterRef: MaxMeterBins, MeterWin: MaxMeterBins}
	if err := atBounds.Validate(); err != nil {
		t.Errorf("config at every size bound rejected: %v", err)
	}
}
