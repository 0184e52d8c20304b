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

// runCluster drives the sharded front tier at fleet scale and writes
// the measured per-shard latency, migration blackout, and recovery
// numbers as JSON (the BENCH_cluster.json schema):
//
//	mindful cluster [-shards N] [-sessions N] [-subs N] [-ticks T]
//	                [-tick-interval D] [-channels C] [-qam B] [-ebn0 DB]
//	                [-seed S] [-decoder NAME] [-migrations M] [-kill]
//	                [-verify] [-out FILE]
//	                [-chaos-sweep] [-chaos-seed S] [-chaos-intensities L]
//	                [-chaos-out FILE]
//
// With no flags it runs the baseline: 3 self-hosted shards, 24 sessions
// × 1 subscriber × 300 frames, 3 live migrations and one shard kill
// with checkpoint recovery mid-run. -verify additionally re-runs every
// session uninterrupted in-process and requires the served digests to
// match bit-for-bit. -chaos-sweep instead runs the scenario once per
// fault intensity in the ladder, injecting seeded deterministic faults
// into the control plane, and writes the survival/retry/latency curves
// as BENCH_chaos.json.
func runCluster() error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	def := cluster.DefaultLoadConfig()
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
	verify := fs.Bool("verify", false, "require served digests to match uninterrupted in-process runs")
	out := fs.String("out", "BENCH_cluster.json", "write the load result as JSON to FILE")
	chaosSweep := fs.Bool("chaos-sweep", false, "run the scenario across a ladder of fault intensities instead of once")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the deterministic fault schedule")
	chaosIntensities := fs.String("chaos-intensities", "", "comma-separated sweep ladder (default 0,0.25,0.5,1,2)")
	chaosOut := fs.String("chaos-out", "BENCH_chaos.json", "write the sweep result as JSON to FILE (with -chaos-sweep)")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if _, err := fleet.ParseDecoderKind(*decoder); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	cfg := cluster.LoadConfig{
		Shards:         *shards,
		Sessions:       *sessions,
		SubsPerSession: *subs,
		Ticks:          *ticks,
		TickInterval:   *tickInterval,
		Decoder:        *decoder,
		Migrations:     *migrations,
		Kill:           *kill,
		VerifyDigests:  *verify,
		Observer:       observer,
		Session: checkpoint.SessionConfig{
			Channels:     *channels,
			SampleRateHz: def.Session.SampleRateHz,
			SampleBits:   def.Session.SampleBits,
			QAMBits:      *qam,
			EbN0dB:       *ebn0,
			Seed:         *seed,
		},
	}
	if *chaosSweep {
		intensities, err := parseIntensities(*chaosIntensities)
		if err != nil {
			return fmt.Errorf("%w: %v", errUsage, err)
		}
		return runChaosSweep(cfg, intensities, *chaosSeed, *chaosOut)
	}

	res, err := cluster.RunLoad(cfg)
	if err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("Cluster: %d shards, %d sessions × %d subscribers × %d frames",
		res.Shards, res.Sessions, res.SubsPerSession, res.Ticks),
		"Metric", "Value")
	tb.AddRow("records received", fmt.Sprintf("%d", res.Records))
	tb.AddRow("elapsed", fmt.Sprintf("%.3f s", res.ElapsedSeconds))
	tb.AddRow("frames/s", fmt.Sprintf("%.0f", res.FramesPerSec))
	for _, sh := range res.PerShard {
		tb.AddRow(sh.ID+" p50/p99 latency",
			fmt.Sprintf("%.3f / %.3f ms (%d records, %d sessions at end)",
				sh.P50Ms, sh.P99Ms, sh.Records, sh.Sessions))
	}
	if len(res.Migrations) > 0 {
		tb.AddRow("migrations", fmt.Sprintf("%d", len(res.Migrations)))
		tb.AddRow("blackout p50/max", fmt.Sprintf("%.2f / %.2f ms", res.BlackoutP50Ms, res.BlackoutMaxMs))
	}
	if res.Killed != "" {
		tb.AddRow("killed shard", res.Killed)
		tb.AddRow("sessions recovered/lost", fmt.Sprintf("%d / %d", res.Recovered, res.Lost))
		tb.AddRow("recovery time", fmt.Sprintf("%.3f s", res.RecoverySeconds))
	}
	if res.DigestsVerified > 0 {
		tb.AddRow("digests verified", fmt.Sprintf("%d (%d mismatches)", res.DigestsVerified, res.DigestMismatches))
	}
	fmt.Print(tb.String())

	if *out != "" {
		bench := struct {
			Benchmark  string `json:"benchmark"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			NumCPU     int    `json:"num_cpu"`
			*cluster.LoadResult
		}{"cluster_loadgen", runtime.GOMAXPROCS(0), runtime.NumCPU(), res}
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

// runChaosSweep runs the intensity ladder and writes BENCH_chaos.json.
func runChaosSweep(cfg cluster.LoadConfig, intensities []float64, seed int64, out string) error {
	sweep, err := cluster.RunChaosSweep(cfg, intensities, seed)
	if err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("Chaos sweep: %d shards, %d sessions × %d frames, seed %d",
		sweep.Shards, sweep.Sessions, sweep.Ticks, sweep.Seed),
		"Intensity", "Survival", "Migr ok", "Retries", "Giveups", "Repairs", "p99 [ms]")
	for _, pt := range sweep.Points {
		r := pt.Result
		tb.AddRow(fmt.Sprintf("%.2f", pt.Intensity),
			fmt.Sprintf("%.3f", r.SurvivalRate),
			fmt.Sprintf("%.3f", r.MigrationSuccessRate),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Giveups),
			fmt.Sprintf("%d", r.ReconcileRepairs),
			fmt.Sprintf("%.3f", r.OverallP99Ms))
	}
	fmt.Print(tb.String())

	if out != "" {
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
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	}
	return nil
}
