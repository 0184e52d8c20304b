package fleet

import (
	"testing"
)

// TestPipelineStepAllocFree pins the one step path's allocation
// behavior: once buffers reach steady state, Pipeline.Step allocates
// nothing — on the default config, and with every fault process, ARQ,
// FEC and concealment enabled. This is what the pooled and
// stage-owned buffers, the Append* kernels, the stack symbol chunk and
// the receiver-owned decode scratch exist for.
func TestPipelineStepAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "harsh": faultConfig()} {
		t.Run(name, func(t *testing.T) {
			pl, err := NewPipeline(cfg, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			for i := 0; i < 256; i++ {
				if err := pl.Step(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(500, func() {
				if err := pl.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("Pipeline.Step allocates %.3f times per tick at steady state, want 0", avg)
			}
		})
	}
}

// benchmarkStage times one stage of a single implant's pipeline: the
// other stages still run every iteration (the pipeline's state must
// advance coherently) but outside the timer window.
func benchmarkStage(b *testing.B, name string) {
	p, err := NewPipeline(DefaultConfig(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	target := -1
	for i, s := range p.stages {
		if s.Name() == name {
			target = i
		}
	}
	if target < 0 {
		b.Fatalf("no %q stage", name)
	}
	for i := 0; i < 64; i++ {
		if err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		p.tk = Tick{N: p.tick, Res: &p.res}
		p.tick++
		for j := 0; j < target; j++ {
			if err := p.stages[j].Step(&p.tk); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		err := p.stages[target].Step(&p.tk)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for j := target + 1; j < len(p.stages); j++ {
			if err := p.stages[j].Step(&p.tk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
}

func BenchmarkStageStep(b *testing.B) {
	for _, name := range []string{"source", "transport", "receiver"} {
		b.Run(name, func(b *testing.B) { benchmarkStage(b, name) })
	}
}
