package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mindful/internal/drift"
	"mindful/internal/fleet"
	"mindful/internal/report"
	"mindful/internal/serve"
	"mindful/internal/serve/checkpoint"
)

// runServe hosts the streaming session gateway until SIGINT/SIGTERM:
//
//	mindful serve [-ctl ADDR] [-stream ADDR] [-snapshot-dir DIR]
//	              [-max-sessions N] [-queue N] [-stall D] [-tick-interval D]
//	              [-decoder NAME] [-drift I] [-adapt]
//
// The control plane is JSON over HTTP on -ctl; the data plane streams
// length-prefixed binary records on -stream. -decoder (kalman, wiener,
// dnn or fixed) attaches that decoder to every session that does not
// name one itself; decoded kinematics stream to "SUB <id> decoded"
// subscribers. -drift I attaches the default nonstationarity profile
// scaled to intensity I to every session that configures none itself;
// -adapt closes the recalibration loop on every linear-decoder session
// that sets no adaptive knob. On shutdown every live session is drained
// and (with -snapshot-dir) checkpointed so it can be restored
// bit-identically.
func runServe() error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	ctl := fs.String("ctl", "127.0.0.1:7600", "control-plane (HTTP) listen address")
	stream := fs.String("stream", "127.0.0.1:7601", "data-plane (TCP) listen address")
	snapDir := fs.String("snapshot-dir", "", "checkpoint live sessions here on shutdown")
	maxSessions := fs.Int("max-sessions", serve.DefaultMaxSessions, "concurrent session limit")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "per-subscriber record queue depth")
	stall := fs.Duration("stall", serve.DefaultStallTimeout, "evict a subscriber stalled this long (negative disables)")
	tickInterval := fs.Duration("tick-interval", 0, "fixed tick period of every session, anchored at each resume; a late loop catches up (0 = free-run)")
	decoder := fs.String("decoder", "", "default kinematics decoder for new sessions: kalman, wiener, dnn or fixed")
	driftI := fs.Float64("drift", 0, "default nonstationarity intensity for new sessions (0 = off)")
	adapt := fs.Bool("adapt", false, "close the recalibration loop on new linear-decoder sessions by default")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if _, err := fleet.ParseDecoderKind(*decoder); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	var defaultDrift *drift.Profile
	if *driftI > 0 {
		p := fleet.DefaultSweepProfile().Scale(*driftI)
		defaultDrift = &p
	}

	srv, err := serve.New(serve.Config{
		ControlAddr:    *ctl,
		StreamAddr:     *stream,
		SnapshotDir:    *snapDir,
		MaxSessions:    *maxSessions,
		QueueDepth:     *queue,
		StallTimeout:   *stall,
		TickInterval:   *tickInterval,
		DefaultDecoder: *decoder,
		DefaultDrift:   defaultDrift,
		DefaultAdapt:   *adapt,
		Observer:       observer,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "control plane on http://%s  data plane on %s\n",
		srv.ControlAddr(), srv.StreamAddr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default handling so a second signal kills hard
	fmt.Fprintln(os.Stderr, "draining sessions...")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}

// runLoadgen drives a gateway at fleet scale and writes the measured
// throughput and delivery latency as JSON (the BENCH_serve.json schema):
//
//	mindful loadgen [-sessions N] [-subs N] [-ticks T] [-channels C]
//	                [-qam B] [-ebn0 DB] [-seed S] [-decoder NAME]
//	                [-drift I] [-adapt] [-out FILE]
//
// With no flags it runs the baseline 100 sessions × 2 subscribers × 100
// frames against a self-hosted loopback gateway.
func runLoadgen() error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	def := serve.DefaultLoadConfig()
	sessions := fs.Int("sessions", def.Sessions, "concurrent sessions")
	subs := fs.Int("subs", def.SubsPerSession, "subscribers per session")
	ticks := fs.Int("ticks", def.Ticks, "frames per session")
	channels := fs.Int("channels", def.Session.Channels, "channels per implant")
	qam := fs.Int("qam", def.Session.QAMBits, "QAM bits per symbol (0 = OOK)")
	ebn0 := fs.Float64("ebn0", def.Session.EbN0dB, "AWGN operating point Eb/N0 [dB]")
	seed := fs.Int64("seed", def.Session.Seed, "base seed (offset per session)")
	decoder := fs.String("decoder", "", "attach a kinematics decoder to every session: kalman, wiener, dnn or fixed")
	driftI := fs.Float64("drift", 0, "nonstationarity intensity for every session (0 = off)")
	adapt := fs.Bool("adapt", false, "close the recalibration loop on every session (needs a linear -decoder)")
	out := fs.String("out", "BENCH_serve.json", "write the load result as JSON to FILE")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if _, err := fleet.ParseDecoderKind(*decoder); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	cfg := serve.LoadConfig{
		Sessions:       *sessions,
		SubsPerSession: *subs,
		Ticks:          *ticks,
		Decoder:        *decoder,
		Session: checkpoint.SessionConfig{
			Channels:     *channels,
			SampleRateHz: def.Session.SampleRateHz,
			SampleBits:   def.Session.SampleBits,
			QAMBits:      *qam,
			EbN0dB:       *ebn0,
			Seed:         *seed,
		},
	}
	if *driftI > 0 {
		p := fleet.DefaultSweepProfile().Scale(*driftI)
		cfg.Session.Drift = &p
	}
	if *adapt {
		cfg.Session.Calibrate, cfg.Session.Track, cfg.Session.Adapt = true, true, true
	}
	res, err := serve.RunLoad(cfg)
	if err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("Loadgen: %d sessions × %d subscribers × %d frames",
		res.Sessions, res.SubsPerSession, res.Ticks),
		"Metric", "Value")
	tb.AddRow("records received", fmt.Sprintf("%d", res.Records))
	tb.AddRow("dropped frames", fmt.Sprintf("%d", res.Dropped))
	tb.AddRow("evicted subscribers", fmt.Sprintf("%d", res.Evicted))
	if *decoder != "" && *decoder != "none" {
		tb.AddRow("decoded steps", fmt.Sprintf("%d", res.DecodedSteps))
	}
	tb.AddRow("elapsed", fmt.Sprintf("%.3f s", res.ElapsedSeconds))
	tb.AddRow("sessions/s", fmt.Sprintf("%.1f", res.SessionsPerSec))
	tb.AddRow("frames/s", fmt.Sprintf("%.0f", res.FramesPerSec))
	tb.AddRow("p50 delivery latency", fmt.Sprintf("%.3f ms", res.P50LatencyMs))
	tb.AddRow("p99 delivery latency", fmt.Sprintf("%.3f ms", res.P99LatencyMs))
	tb.AddRow("p99.9 delivery latency", fmt.Sprintf("%.3f ms", res.P999LatencyMs))
	tb.AddRow("max delivery latency", fmt.Sprintf("%.3f ms", res.MaxLatencyMs))
	fmt.Print(tb.String())

	if *out != "" {
		bench := struct {
			Benchmark  string `json:"benchmark"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			NumCPU     int    `json:"num_cpu"`
			*serve.LoadResult
		}{"serve_loadgen", runtime.GOMAXPROCS(0), runtime.NumCPU(), res}
		buf, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	return nil
}
