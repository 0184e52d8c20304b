package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"mindful/internal/comm"
	"mindful/internal/fault"
)

// packedFaultConfig returns a scenario without ARQ or FEC that injects
// every per-implant fault process — burst link drops, brownouts and
// electrode faults.
func packedFaultConfig() Config {
	cfg := testConfig()
	p := fault.DefaultProfile()
	cfg.Faults = &p
	return cfg
}

// TestBatchedDeterminismWall is the batch half of the determinism wall:
// for every scenario — the clean transport, FEC, ARQ, a modulation whose
// symbols straddle bytes, faults, drift and the closed decode loop — the
// fleet digests must equal the values recorded from
// the two-runner simulator (scalar per-implant stages plus the batched
// slab columns) before the runners were folded into Pipeline.Step, and
// every batch size × worker count must reproduce the reference run's
// aggregate and per-implant results byte for byte, under -race (the
// tier-1.5 gate runs this file with the race detector).
func TestBatchedDeterminismWall(t *testing.T) {
	drifting := packedFaultConfig()
	driftProf := driftProfile()
	drifting.Drift = &driftProf
	drifting.Decode = DecodeConfig{Kind: DecoderKalman, Track: true, Adapt: true}
	calibrated := drifting
	calibrated.Channels = 32
	calibrated.Ticks = 160
	calibrated.Decode.Calibrate = true

	fecOnly := testConfig()
	fecOnly.FECDepth = 4

	arqOnly := packedFaultConfig()
	arqOnly.ARQ = comm.ARQConfig{MaxRetries: 2}

	qam64 := testConfig()
	qam64.Modulation = comm.NewQAM(6)
	qam64.EbN0dB = 16

	scenarios := []struct {
		name                 string
		cfg                  Config
		digest, decodeDigest uint64
	}{
		// 16-QAM, no FEC, no ARQ.
		{"clean", testConfig(), 0x9c84c137f47cd3d1, 0},
		// Every fault process injected.
		{"faults", packedFaultConfig(), 0x05967bc2339fd8cb, 0},
		// Faults + decode/adapt stages + drift.
		{"drift_decode", drifting, 0xefef691357e10e54, 0x2d2bcd34fb04d39f},
		// The benchmark's fleet-decode decode config at the Kalman shape
		// (32 channels), long enough for refits: the calibration fit
		// (FitKalman, LeastSquares, Inverse), every Step's 32×32
		// InverseInto and the recalibrator's readout fit. Pinned from the
		// accessor-loop linalg kernels, before they were slice-indexed.
		{"calibrated_decode", calibrated, 0x14700a379e75473d, 0x9a8d00e59c13279c},
		// FEC: packed Hamming(7,4), the coded stream padded to symbols.
		{"fec", fecOnly, 0xcc1c4db4a7912148, 0},
		// ARQ without FEC under the fault profile. Pinned from the
		// bit-per-byte transport, before it was packed.
		{"arq", arqOnly, 0xe98edc0211ded208, 0},
		// ARQ + FEC + full fault profile.
		{"harsh", faultConfig(), 0xa71d7bb5bb620017, 0},
		// 6 bits/symbol: groups straddle bytes and frames pad to symbols.
		{"qam64", qam64, 0x94a6cdb765fcc300, 0},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.Workers = 1
			cfg.Batch = 0
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.BitErrors == 0 {
				t.Fatal("operating point produced zero bit errors; the wall would not exercise the noisy path")
			}
			if ref.Digest != sc.digest || ref.DecodeDigest != sc.decodeDigest {
				t.Fatalf("digests %#x/%#x, pinned %#x/%#x", ref.Digest, ref.DecodeDigest, sc.digest, sc.decodeDigest)
			}
			if sc.cfg.Decode.Adapt && sc.cfg.Decode.Calibrate && ref.Refits == 0 {
				t.Fatal("no refit ran; the row would not exercise the readout fit")
			}
			want := deterministicFields(ref)
			for _, batch := range []int{0, 1, 4, 16} {
				for _, workers := range []int{1, 2, 4} {
					batch, workers := batch, workers
					t.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(t *testing.T) {
						t.Parallel()
						c := cfg
						c.Batch = batch
						c.Workers = workers
						got, err := Run(c)
						if err != nil {
							t.Fatal(err)
						}
						if g := deterministicFields(got); !reflect.DeepEqual(g, want) {
							t.Errorf("aggregate diverged:\n got %+v\nwant %+v", g, want)
						}
						for i := range got.PerImplant {
							g, w := got.PerImplant[i], ref.PerImplant[i]
							g.Worker, w.Worker = 0, 0
							if g != w {
								t.Errorf("implant %d diverged:\n got %+v\nwant %+v", i, g, w)
							}
						}
					})
				}
			}
		})
	}
}

// TestBatchedStageTiming checks timing attribution with grouped
// stepping: one clock per stage, frame counts equal to implants × ticks,
// and the digest untouched by the decorator.
func TestBatchedStageTiming(t *testing.T) {
	cfg := testConfig()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, agg, err := RunProfile(withBatch(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Digest != ref.Digest {
		t.Errorf("timed grouped digest %#x != untimed %#x", agg.Digest, ref.Digest)
	}
	frames := int64(cfg.Implants * cfg.Ticks)
	for _, s := range prof.Stages {
		if s.Count != frames {
			t.Errorf("stage %s count = %d, want %d", s.Stage, s.Count, frames)
		}
		if s.Count > 0 && (s.P50Ns < float64(s.MinNs) || s.P99Ns > float64(s.MaxNs)) {
			t.Errorf("stage %s quantiles outside [min,max]", s.Stage)
		}
	}
}

func withBatch(cfg Config, b int) Config {
	cfg.Batch = b
	return cfg
}

// TestBatchedCheckpointCompatible pins the serve-path interaction: a
// pipeline snapshot restores and continues identically under a config
// that groups implants — Batch is a runner choice, not simulation state.
func TestBatchedCheckpointCompatible(t *testing.T) {
	cfg := testConfig()
	cfg.Batch = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 10; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := RestorePipeline(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 10; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		if err := q.Step(); err != nil {
			t.Fatal(err)
		}
	}
	pr, qr := p.Result(), q.Result()
	if pr.Digest != qr.Digest {
		t.Errorf("restored digest %#x != original %#x", qr.Digest, pr.Digest)
	}
}

// TestBatchValidate pins the batch-size config checks.
func TestBatchValidate(t *testing.T) {
	cfg := testConfig()
	cfg.Batch = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative batch accepted")
	}
	cfg.Batch = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("batch=1 rejected: %v", err)
	}
}
