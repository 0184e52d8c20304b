package main

import (
	"flag"
	"fmt"
	"os"

	"mindful/internal/dnnmodel"
	"mindful/internal/fleet"
	"mindful/internal/mac"
	"mindful/internal/obs"
	"mindful/internal/report"
	"mindful/internal/sched"
	"mindful/internal/thermal"
)

// Observability flags, honored by every subcommand: any run can snapshot
// the process-wide registry and trace at exit, and -debug-addr serves them
// live alongside net/http/pprof.
var (
	metricsPath = flag.String("metrics", "", "write a Prometheus-text metrics snapshot to this file at exit")
	tracePath   = flag.String("trace", "", "write the span trace as JSON lines to this file at exit")
	eventsPath  = flag.String("events", "", "write the flight-recorder event log as JSON lines to this file at exit")
	debugAddr   = flag.String("debug-addr", "", "serve /metrics, /trace, expvar and pprof on this address while running")
)

// observer is the process-wide sink behind the observability flags.
var observer = obs.New()

// startDebug starts the -debug-addr listener if requested; the returned
// stop function is safe to call either way.
func startDebug() (func() error, error) {
	if *debugAddr == "" {
		return func() error { return nil }, nil
	}
	bound, stop, err := obs.ServeDebug(*debugAddr, observer)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "debug listener on http://%s/metrics\n", bound)
	return stop, nil
}

// writeObsOutputs flushes the -metrics, -trace and -events files.
func writeObsOutputs() error {
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			return err
		}
		if err := observer.Metrics.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := observer.Tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *tracePath)
	}
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			return err
		}
		if err := observer.Events.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *eventsPath)
	}
	return nil
}

// runObserve drives every obs-wired subsystem into one registry: one
// fleet.Run at the default operating point (implants streaming frames
// over 16-QAM and AWGN into their wearable receivers) with the observer
// and the per-stage flight recorder attached, then the thermal solver
// checks the safety limit and the scheduler prices the matching DNN — so
// the snapshot spans the fleet pipeline and both solvers.
func runObserve() error {
	cfg := fleet.DefaultConfig()
	cfg.Observer = observer
	cfg.StageTiming = obs.NewStageTimer()
	agg, err := fleet.Run(cfg)
	if err != nil {
		return err
	}

	// Thermal: a steady-state solve at the 40 mW/cm² safety limit records
	// solver timing and the max tissue-temperature rise.
	tm := thermal.DefaultModel()
	tm.Obs = observer
	profile, err := tm.SteadyState(thermal.SafeDensity)
	if err != nil {
		return err
	}

	// Scheduling: one lower-bound solve for the matching MLP workload.
	// (main wires sched's package-level observer; do it here too so the
	// runner works standalone, e.g. under test.)
	sched.SetObserver(observer)
	model, err := dnnmodel.MLP().Scale(cfg.Channels)
	if err != nil {
		return err
	}
	bound, err := sched.Best(model, sched.DeadlineFor(cfg.SampleRate), mac.NanGate45)
	if err != nil {
		return err
	}

	tb := report.NewTable("Observability: instrumented end-to-end run",
		"Stage", "Result")
	tb.AddRow("fleet", fmt.Sprintf("%d implants × %d ticks, %d frames, %d bits",
		agg.Implants, agg.Ticks, agg.Frames, agg.BitsSent))
	tb.AddRow("link", fmt.Sprintf("%s over AWGN at %g dB: BER %.3g, FER %.3g",
		cfg.Modulation.Name(), cfg.EbN0dB, agg.BER, agg.FER))
	tb.AddRow("wearable", fmt.Sprintf("%d accepted, %d corrupt, %d lost",
		agg.Accepted, agg.Corrupt, agg.LostSeq))
	tb.AddRow("thermal", fmt.Sprintf("rise %.2f °C at the 40 mW/cm² limit", profile.SurfaceRise()))
	tb.AddRow("sched", fmt.Sprintf("%d MAC units lower bound (%s)", bound.MACHW, model.Name))
	fmt.Print(tb.String())
	fmt.Println()
	fmt.Print(stageTable("Stage timing: attributed ns/frame", cfg.StageTiming.Stats()).String())
	fmt.Println()
	fmt.Printf("Registry holds the snapshot; rerun with -metrics to export it,\n")
	fmt.Printf("or -debug-addr to serve /metrics and pprof live.\n")
	return nil
}
