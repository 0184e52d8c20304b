// The fleet scaling contract: the parallel simulator must produce
// bit-identical output at every worker count while throughput scales
// with the hardware. TestFleetScalingBaseline measures the worker curve
// (1/2/4/8 workers) on the 64-implant fleet, asserted ≥3× at 8 workers
// where the host has the cores to express it, with per-stage ns/frame
// attribution from the flight recorder, and writes it to
// BENCH_fleet.json (with -update) as the tracked baseline. The
// single-core kernel floor lives with the kernel: the comm package's
// TestPackedModemSpeedupFloor.
package mindful_test

import (
	"fmt"
	"runtime"
	"testing"

	"mindful/internal/fleet"
	"mindful/internal/obs"
)

// fleetScalingConfig is the fixed workload of the curve: the 64-implant
// fleet.
func fleetScalingConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Implants = 64
	cfg.Ticks = 48
	cfg.Channels = 32
	return cfg
}

// fleetScalingBaseline is the BENCH_fleet.json schema.
type fleetScalingBaseline struct {
	Benchmark string `json:"benchmark"`
	Implants  int    `json:"implants"`
	Ticks     int    `json:"ticks"`
	Channels  int    `json:"channels"`
	// GOMAXPROCS and NumCPU record the parallelism the host could offer;
	// a flat worker curve on a single-core machine is expected, not a
	// regression.
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"num_cpu"`
	Points     []fleet.ScalingPoint `json:"points"`
	// Stages attributes the single-worker tick to stages (ns/frame).
	Stages []obs.StageStats `json:"stages"`
}

func TestFleetScalingBaseline(t *testing.T) {
	cfg := fleetScalingConfig()
	points, err := fleet.MeasureScaling(cfg, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	b := fleetScalingBaseline{
		Benchmark:  "fleet_worker_scaling",
		Implants:   cfg.Implants,
		Ticks:      cfg.Ticks,
		Channels:   cfg.Channels,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Points:     points,
	}
	for _, p := range points {
		t.Logf("workers=%d: %.0f frames/s (%.2fx)", p.Workers, p.FramesPerSecond, p.Speedup)
	}

	// Per-stage attribution, digest-checked against the sweep (the
	// profile decorator is digest-neutral).
	cfg.Workers = 1
	prof, agg, err := fleet.RunProfile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Digest != points[0].Digest {
		t.Fatalf("profile digest %#x diverged from sweep %#x", agg.Digest, points[0].Digest)
	}
	b.Stages = prof.Stages

	// The parallel-scaling acceptance bound (≥3x at 8 workers) needs at
	// least 8 cores to be physically measurable; on smaller hosts the
	// curve is recorded but only the determinism contract is enforced
	// (digest equality is already checked inside MeasureScaling).
	if b.NumCPU >= 8 && b.GOMAXPROCS >= 8 {
		last := points[len(points)-1]
		if last.Speedup < 3 {
			t.Errorf("8-worker speedup %.2fx on a %d-core host, want >= 3x", last.Speedup, b.NumCPU)
		}
	}

	writeBaseline(t, "BENCH_fleet.json", b)
}

// BenchmarkFleet measures the fleet simulator across worker counts;
// ReportAllocs tracks the hot path's per-frame allocation budget (the
// step path is pinned to zero steady-state allocations by the fleet
// package's alloc test).
func BenchmarkFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fleetScalingConfig()
			cfg.Ticks = 16
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
