package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mindful/internal/drift"
	"mindful/internal/fleet"
	"mindful/internal/serve"
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
