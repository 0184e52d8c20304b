// The observability contract: an implant nobody observes must run at the
// bare pipeline's speed. Every hook in the tick loop is either a method on
// a nil instrument (which returns immediately) or a branch on a cached
// attached flag, so the unobserved cost is a handful of nil checks per
// tick. This test measures that cost directly — the exact no-op hook
// sequence of one communication-centric tick against the tick itself — and
// writes the figures to BENCH_obs.json (with -update) as the tracked
// baseline.
package mindful_test

import (
	"testing"
	"time"

	"mindful"
	"mindful/internal/obs"
)

// obsOverheadBaseline is the BENCH_obs.json schema.
type obsOverheadBaseline struct {
	Benchmark string `json:"benchmark"`
	Ticks     int    `json:"ticks"`
	Reps      int    `json:"reps"`
	// UnobservedNsPerTick is the tick loop with no observer attached (the
	// no-op short-circuit path); ObservedNsPerTick has a live registry and
	// tracer behind every hook.
	UnobservedNsPerTick float64 `json:"unobserved_ns_per_tick"`
	ObservedNsPerTick   float64 `json:"observed_ns_per_tick"`
	ObservedOverheadPct float64 `json:"observed_overhead_pct"`
	// NoopHookNsPerTick is the measured cost of one tick's worth of no-op
	// hook calls in isolation; NoopOverheadPct relates it to the tick.
	NoopHookNsPerTick float64 `json:"noop_hook_ns_per_tick"`
	NoopOverheadPct   float64 `json:"noop_overhead_pct"`
	// FlightHookNsPerTick is the disabled flight recorder's per-tick cost:
	// the four per-stage nil StageClock observes plus the event-log nil
	// check — what every tick pays when neither -stage-timing nor an
	// Observer is attached. FlightOverheadPct relates it to the tick.
	FlightHookNsPerTick float64 `json:"flight_hook_ns_per_tick"`
	FlightOverheadPct   float64 `json:"flight_overhead_pct"`
}

// tickNs returns the best-of-reps ns/tick of a comm-centric implant.
func tickNs(t *testing.T, observe bool, warmup, ticks, reps int) float64 {
	t.Helper()
	best := 0.0
	for r := 0; r < reps; r++ {
		im, err := mindful.NewImplant(mindful.DefaultImplantConfig())
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			im.SetObserver(mindful.NewObserver())
		}
		if err := im.Run(warmup); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := im.Run(ticks); err != nil {
			t.Fatal(err)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(ticks)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// noopHookNs measures one comm-centric tick's hook sequence against nil
// instruments: four spans, the frame and bit counters, and the
// attached-flag branch — exactly what an unobserved Tick executes.
func noopHookNs() float64 {
	var h struct {
		attached                   bool
		tracer                     *obs.Tracer
		ticks, frames, bits        *obs.Counter
		dropped                    *obs.Counter
		computeEnergy, radioEnergy *obs.Gauge
	}
	const iters = 2_000_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		tick := h.tracer.Start("implant.tick", 0)
		sp := h.tracer.Start("implant.sense", tick)
		h.tracer.End(sp)
		sp = h.tracer.Start("implant.adc", tick)
		h.tracer.End(sp)
		sp = h.tracer.Start("implant.transmit", tick)
		h.frames.Inc()
		h.bits.Add(11136)
		h.tracer.End(sp)
		if h.attached {
			h.ticks.Inc()
			h.computeEnergy.Set(1)
			h.radioEnergy.Set(1)
		}
		h.tracer.End(tick)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// flightHookNs measures the disabled flight recorder's tick cost: one
// nil StageClock.Observe per pipeline stage (source, transport,
// receiver, decode) plus one nil EventLog nil-check — the exact sequence
// an untimed, unobserved fleet tick would pay if the hooks ever lost
// their short circuits. (The fleet skips even this by not wrapping
// stages when StageTiming is nil; the bound here is the worst case.)
func flightHookNs() float64 {
	var h struct {
		clocks [4]*obs.StageClock
		events *obs.EventLog
	}
	const iters = 2_000_000
	n := int64(0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, c := range h.clocks {
			c.Observe(int64(i))
		}
		if h.events != nil {
			n++
		}
	}
	_ = n
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func TestObserverOverheadBaseline(t *testing.T) {
	const (
		warmup = 2000
		ticks  = 20000
		reps   = 3
	)
	unobserved := tickNs(t, false, warmup, ticks, reps)
	observed := tickNs(t, true, warmup, ticks, reps)
	hook := noopHookNs()
	flight := flightHookNs()

	b := obsOverheadBaseline{
		Benchmark:           "implant_tick_observer_overhead",
		Ticks:               ticks,
		Reps:                reps,
		UnobservedNsPerTick: unobserved,
		ObservedNsPerTick:   observed,
		ObservedOverheadPct: 100 * (observed - unobserved) / unobserved,
		NoopHookNsPerTick:   hook,
		NoopOverheadPct:     100 * hook / unobserved,
		FlightHookNsPerTick: flight,
		FlightOverheadPct:   100 * flight / unobserved,
	}
	t.Logf("unobserved %.0f ns/tick, observed %.0f ns/tick (%.1f%%), no-op hooks %.1f ns (%.2f%%), flight hooks %.1f ns (%.2f%%)",
		b.UnobservedNsPerTick, b.ObservedNsPerTick, b.ObservedOverheadPct,
		b.NoopHookNsPerTick, b.NoopOverheadPct,
		b.FlightHookNsPerTick, b.FlightOverheadPct)

	// The acceptance bound: the no-op short-circuit must stay under 5% of
	// the tick. The margin is wide — the hooks measure in the tens of
	// nanoseconds against a multi-microsecond tick — so a failure here
	// means an instrument lost its nil short-circuit, not timer noise.
	if b.NoopOverheadPct >= 5 {
		t.Errorf("no-op observer hooks cost %.2f%% of a tick, want < 5%%", b.NoopOverheadPct)
	}
	// The flight recorder's disabled path is tighter still: four nil
	// observes and a nil check must stay under 0.5% of the tick.
	if b.FlightOverheadPct >= 0.5 {
		t.Errorf("disabled flight-recorder hooks cost %.2f%% of a tick, want < 0.5%%", b.FlightOverheadPct)
	}

	writeBaseline(t, "BENCH_obs.json", b)
}
