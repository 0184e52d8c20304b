package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mindful/internal/cluster"
	"mindful/internal/fleet"
	"mindful/internal/report"
	"mindful/internal/serve/checkpoint"
)

// runCluster runs the cluster chaos sweep and writes it as JSON (the
// BENCH_chaos.json schema):
//
//	mindful cluster [-shards N] [-sessions N] [-subs N] [-ticks T]
//	                [-tick-interval D] [-channels C] [-qam B] [-ebn0 DB]
//	                [-seed S] [-decoder NAME] [-migrations M] [-kill]
//	                [-chaos-seed S] [-chaos-intensities L] [-chaos-out FILE]
//
// Each intensity in the ladder self-hosts a sharded front tier, streams
// every session through it, injects live migrations and one shard kill
// with checkpoint recovery mid-run, and injects seeded deterministic
// faults into the control plane scaled by the intensity. Every served
// digest must match an uninterrupted in-process run; a mismatch at any
// intensity fails the command. With no flags it reproduces the tracked
// BENCH_chaos.json: 3 shards, 8 sessions × 1 subscriber × 120 frames,
// 2 migrations and a kill, chaos seed 1, ladder 0,0.5,1,2.
// -chaos-intensities 0 is a single fault-free run.
func runCluster() error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	def := cluster.DefaultSweepConfig()
	shards := fs.Int("shards", def.Shards, "self-hosted gateway count")
	sessions := fs.Int("sessions", def.Sessions, "concurrent sessions across the cluster")
	subs := fs.Int("subs", def.SubsPerSession, "subscribers per session (dialed through the front tier)")
	ticks := fs.Int("ticks", def.Ticks, "frames per session")
	tickInterval := fs.Duration("tick-interval", time.Millisecond, "fixed tick period of every shard's sessions, anchored at each resume; a late loop catches up")
	channels := fs.Int("channels", def.Session.Channels, "channels per implant")
	qam := fs.Int("qam", def.Session.QAMBits, "QAM bits per symbol (0 = OOK)")
	ebn0 := fs.Float64("ebn0", def.Session.EbN0dB, "AWGN operating point Eb/N0 [dB]")
	seed := fs.Int64("seed", def.Session.Seed, "base seed (offset per session)")
	decoder := fs.String("decoder", "", "attach a kinematics decoder to every session: kalman, wiener or dnn")
	migrations := fs.Int("migrations", def.Migrations, "live migrations to inject mid-run")
	kill := fs.Bool("kill", def.Kill, "kill one shard mid-run and recover from checkpoints")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the deterministic fault schedule")
	chaosIntensities := fs.String("chaos-intensities", "", "comma-separated intensity ladder (default 0,0.5,1,2)")
	chaosOut := fs.String("chaos-out", "BENCH_chaos.json", "write the sweep result as JSON to FILE (empty = table only)")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if _, err := fleet.ParseDecoderKind(*decoder); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	intensities, err := parseIntensities(*chaosIntensities)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	cfg := cluster.SweepConfig{
		Shards:         *shards,
		Sessions:       *sessions,
		SubsPerSession: *subs,
		Ticks:          *ticks,
		TickInterval:   *tickInterval,
		Migrations:     *migrations,
		Kill:           *kill,
		Observer:       observer,
		Session: checkpoint.SessionConfig{
			Channels:     *channels,
			SampleRateHz: def.Session.SampleRateHz,
			SampleBits:   def.Session.SampleBits,
			QAMBits:      *qam,
			EbN0dB:       *ebn0,
			Seed:         *seed,
			Decoder:      *decoder,
		},
	}
	sweep, err := cluster.RunChaosSweep(cfg, intensities, *chaosSeed)
	if err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("Chaos sweep: %d shards, %d sessions × %d frames, seed %d",
		sweep.Shards, sweep.Sessions, sweep.Ticks, sweep.Seed),
		"Intensity", "Survival", "Migr ok", "Retries", "Giveups", "Repairs", "p99 [ms]", "Digests")
	for _, pt := range sweep.Points {
		tb.AddRow(fmt.Sprintf("%.2f", pt.Intensity),
			fmt.Sprintf("%.3f", pt.SurvivalRate),
			fmt.Sprintf("%.3f", pt.MigrationSuccessRate),
			fmt.Sprintf("%d", pt.Retries),
			fmt.Sprintf("%d", pt.Giveups),
			fmt.Sprintf("%d", pt.ReconcileRepairs),
			fmt.Sprintf("%.3f", pt.P99Ms),
			fmt.Sprintf("%d ok", pt.DigestsVerified))
	}
	fmt.Print(tb.String())

	if *chaosOut != "" {
		bench := struct {
			Benchmark  string `json:"benchmark"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			NumCPU     int    `json:"num_cpu"`
			*cluster.ChaosSweep
		}{"cluster_chaos_sweep", runtime.GOMAXPROCS(0), runtime.NumCPU(), sweep}
		buf, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*chaosOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *chaosOut)
	}
	return nil
}

// parseIntensities parses the -chaos-intensities ladder; empty means
// the default ladder.
func parseIntensities(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || x < 0 {
			return nil, fmt.Errorf("bad intensity %q", part)
		}
		out = append(out, x)
	}
	return out, nil
}
