package fleet

import (
	"sync"
	"testing"
	"time"

	"mindful/internal/comm"
	"mindful/internal/fault"
	"mindful/internal/wearable"
)

// checkpointConfigs returns the scenarios the checkpoint wall runs:
// the clean path and the full recovery stack (faults + ARQ + FEC +
// concealment), which exercises every serializable component state.
func checkpointConfigs() map[string]Config {
	clean := DefaultConfig()
	clean.Implants = 4
	clean.Ticks = 32
	clean.Channels = 16

	full := DefaultConfig()
	full.Implants = 4
	full.Ticks = 32
	full.Channels = 16
	full.EbN0dB = 8 // noisy enough to exercise retries and concealment
	prof := fault.DefaultProfile()
	full.Faults = &prof
	full.ARQ = comm.ARQConfig{MaxRetries: 2, SlotTime: time.Millisecond, LatencyBudget: 8 * time.Millisecond}
	full.FECDepth = 4
	full.Concealment = wearable.ConcealInterp

	return map[string]Config{"clean": clean, "full-stack": full}
}

// stepN steps the pipeline n times, failing the test on error.
func stepN(t *testing.T, p *Pipeline, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineMatchesRunImplant: a pipeline stepped Ticks times on its
// own must reproduce Run's result for that implant exactly — the
// extraction invariant.
func TestPipelineMatchesRunImplant(t *testing.T) {
	for name, cfg := range checkpointConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Workers = 1
			agg, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < cfg.Implants; idx++ {
				want := agg.PerImplant[idx]
				p, err := NewPipeline(cfg, idx, 0)
				if err != nil {
					t.Fatal(err)
				}
				stepN(t, p, cfg.Ticks)
				if got := p.Result(); got != want {
					t.Fatalf("implant %d: pipeline result %+v\nwant %+v", idx, got, want)
				}
				p.Close()
			}
		})
	}
}

// TestCheckpointResumeBitIdentical: run K ticks, snapshot, restore, run
// K more — every counter and the digest must equal the uninterrupted 2K
// run. This is the serve gateway's snapshot/restore guarantee.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const k = 16
	for name, cfg := range checkpointConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for idx := 0; idx < cfg.Implants; idx++ {
				ref, err := NewPipeline(cfg, idx, 0)
				if err != nil {
					t.Fatal(err)
				}
				stepN(t, ref, 2*k)
				want := ref.Result()
				ref.Close()

				first, err := NewPipeline(cfg, idx, 0)
				if err != nil {
					t.Fatal(err)
				}
				stepN(t, first, k)
				st, err := first.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				// The snapshotted pipeline keeps running: a snapshot must
				// not disturb the original.
				stepN(t, first, k)
				if got := first.Result(); got != want {
					t.Fatalf("implant %d: snapshot disturbed the running pipeline: %+v want %+v", idx, got, want)
				}
				first.Close()

				resumed, err := RestorePipeline(cfg, st)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Tick() != k {
					t.Fatalf("restored tick %d, want %d", resumed.Tick(), k)
				}
				stepN(t, resumed, k)
				if got := resumed.Result(); got != want {
					t.Fatalf("implant %d: resumed result %+v\nwant %+v", idx, got, want)
				}
				resumed.Close()
			}
		})
	}
}

// TestCheckpointResumeWorkerInvariance: a sharded fleet where every
// implant is snapshotted and restored mid-run must reproduce the
// uninterrupted aggregate digest for any worker count — checkpointing
// composes with the fleet's scheduling-independence guarantee. Runs
// under -race via the race target.
func TestCheckpointResumeWorkerInvariance(t *testing.T) {
	cfg := checkpointConfigs()["full-stack"]
	const k = 16
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		digests := make([]uint64, cfg.Implants)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < cfg.Implants; i += workers {
					p, err := NewPipeline(cfg, i, w)
					if err != nil {
						errs[w] = err
						return
					}
					for t := 0; t < k; t++ {
						if err := p.Step(); err != nil {
							errs[w] = err
							return
						}
					}
					st, err := p.Snapshot()
					p.Close()
					if err != nil {
						errs[w] = err
						return
					}
					r, err := RestorePipeline(cfg, st)
					if err != nil {
						errs[w] = err
						return
					}
					for t := k; t < cfg.Ticks; t++ {
						if err := r.Step(); err != nil {
							errs[w] = err
							return
						}
					}
					digests[i] = r.Result().Digest
					r.Close()
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		digest := uint64(fnvOffset)
		for _, d := range digests {
			for shift := 56; shift >= 0; shift -= 8 {
				digest = (digest ^ (d >> shift & 0xFF)) * fnvPrime
			}
		}
		if digest != ref.Digest {
			t.Fatalf("workers=%d: checkpointed fleet digest %d, want %d", workers, digest, ref.Digest)
		}
	}
}

// TestRestoreRejectsMismatchedConfig: a snapshot must not silently
// restore under a config with a different shape or seed.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := checkpointConfigs()["full-stack"]
	p, err := NewPipeline(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, p, 8)
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	bad := cfg
	bad.Seed = cfg.Seed + 1
	if _, err := RestorePipeline(bad, st); err == nil {
		t.Fatal("restore under a different seed succeeded")
	}
	noFaults := cfg
	noFaults.Faults = nil
	if _, err := RestorePipeline(noFaults, st); err == nil {
		t.Fatal("restore without the fault profile succeeded")
	}
	noARQ := cfg
	noARQ.ARQ = comm.ARQConfig{}
	if _, err := RestorePipeline(noARQ, st); err == nil {
		t.Fatal("restore without ARQ succeeded")
	}
}

// TestRestoreRejectsForgedStreamSeeds: restore takes each RNG stream's
// seed from the checkpoint, so each must equal the seed the config
// derives for that implant and stream. A forged one would swap in
// another stream — a different fault or drift history under the same
// config. One row per stream; the unedited state must still restore.
func TestRestoreRejectsForgedStreamSeeds(t *testing.T) {
	cfg := checkpointConfigs()["full-stack"]
	dp := driftProfile()
	cfg.Drift = &dp
	p, err := NewPipeline(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, p, 8)
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if st.Link == nil || st.Brown == nil || st.Drift == nil {
		t.Fatal("checkpoint lacks a burst-link, brownout or drift stream")
	}
	q, err := RestorePipeline(cfg, st)
	if err != nil {
		t.Fatalf("unedited checkpoint rejected: %v", err)
	}
	q.Close()

	for name, forge := range map[string]func(*PipelineState){
		"channel": func(s *PipelineState) { s.Channel.RNG.Seed++ },
		"burst link": func(s *PipelineState) {
			l := *s.Link
			l.RNG.Seed++
			s.Link = &l
		},
		"brownout": func(s *PipelineState) {
			b := *s.Brown
			b.RNG.Seed++
			s.Brown = &b
		},
		"drift": func(s *PipelineState) {
			d := *s.Drift
			d.RNG.Seed = DeriveSeed(cfg.Seed, 0, StreamDrift) // implant 0's stream
			s.Drift = &d
		},
	} {
		forged := st
		forge(&forged)
		if q, err := RestorePipeline(cfg, forged); err == nil {
			q.Close()
			t.Errorf("%s: checkpoint with a forged RNG seed restored", name)
		}
	}
}
