package fleet

import (
	"reflect"
	"strings"
	"testing"

	"mindful/internal/obs"
)

// timedConfig is the harshest timed scenario: faults, ARQ, FEC,
// concealment and a decoder, so the decorator wraps all four stages.
func timedConfig() Config {
	cfg := faultConfig()
	cfg.Decode = DecodeConfig{Kind: DecoderKalman}
	return cfg
}

// TestStageTimingDigestNeutral pins the flight recorder's core contract:
// wrapping every stage in the timing decorator changes nothing about the
// simulation. Aggregates — including the frame digest and the decode
// digest — must be byte-identical to the untimed run.
func TestStageTimingDigestNeutral(t *testing.T) {
	cfg := timedConfig()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StageTiming = obs.NewStageTimer()
	timed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := deterministicFields(timed), deterministicFields(ref); !reflect.DeepEqual(g, w) {
		t.Errorf("timed aggregate diverged:\n got %+v\nwant %+v", g, w)
	}
	for i := range timed.PerImplant {
		g, w := timed.PerImplant[i], ref.PerImplant[i]
		g.Worker, w.Worker = 0, 0
		if g != w {
			t.Errorf("implant %d diverged under timing:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestStageTimingCoversAllStages checks attribution completeness: every
// stage of the graph lands in the timer with one observation per tick
// per implant (blanked ticks still step every stage).
func TestStageTimingCoversAllStages(t *testing.T) {
	cfg := timedConfig()
	cfg.StageTiming = obs.NewStageTimer()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	stats := cfg.StageTiming.Stats()
	var names []string
	for _, s := range stats {
		names = append(names, s.Stage)
		if want := int64(cfg.Implants * cfg.Ticks); s.Count != want {
			t.Errorf("stage %s count = %d, want %d", s.Stage, s.Count, want)
		}
		if s.TotalNs <= 0 || s.MeanNs <= 0 {
			t.Errorf("stage %s has no attributed time: %+v", s.Stage, s)
		}
	}
	if got, want := strings.Join(names, ","), "decode,receiver,source,transport"; got != want {
		t.Errorf("timed stages = %s, want %s", got, want)
	}
}

// TestStageTimingCheckpointNeutral drives snapshot/restore through timed
// pipelines: the decorator must delegate state transparently, and the
// interrupted timed run must reproduce the uninterrupted untimed digest.
func TestStageTimingCheckpointNeutral(t *testing.T) {
	cfg := timedConfig()
	cfg.Workers = 1
	agg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := agg.PerImplant[0]

	cfg.StageTiming = obs.NewStageTimer()
	p, err := NewPipeline(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	half := cfg.Ticks / 2
	for i := 0; i < half; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	resumed, err := RestorePipeline(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for i := half; i < cfg.Ticks; i++ {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := resumed.Result()
	if got != ref {
		t.Errorf("timed checkpoint run diverged:\n got %+v\nwant %+v", got, ref)
	}
}

// TestRunProfile covers the profile artifact: digest matches an untimed
// run, every stage reports, and the JSON round-trips.
func TestRunProfile(t *testing.T) {
	cfg := timedConfig()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, agg, err := RunProfile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Digest != ref.Digest || agg.DecodeDigest != ref.DecodeDigest {
		t.Errorf("profiled digests %016x/%016x, want %016x/%016x",
			agg.Digest, agg.DecodeDigest, ref.Digest, ref.DecodeDigest)
	}
	if len(prof.Stages) != 4 {
		t.Fatalf("profile has %d stages, want 4: %+v", len(prof.Stages), prof.Stages)
	}
	for _, s := range prof.Stages {
		if s.Count == 0 || s.MeanNs <= 0 {
			t.Errorf("profile stage %s empty: %+v", s.Stage, s)
		}
	}
	var b strings.Builder
	if err := prof.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"stages"`, `"mean_ns"`, `"digest"`, `"source"`, `"decode"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("profile JSON missing %s:\n%s", want, b.String())
		}
	}
}
