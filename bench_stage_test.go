// The stage flight recorder's gate: a decode-in-the-loop fleet run with
// per-stage timing attached must attribute every tick to all four
// pipeline stages and stay digest-identical to the untimed run. This is
// the `make obs-smoke` gate; per-stage ns/frame numbers of record come
// from the benchmark harness in bench/.
package mindful_test

import (
	"testing"

	"mindful/internal/fleet"
)

func TestStageProfileBaseline(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Implants = 16
	cfg.Workers = 4
	cfg.Ticks = 64
	cfg.Decode = fleet.DecodeConfig{Kind: fleet.DecoderKalman}

	prof, agg, err := fleet.RunProfile(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The timing decorator is digest-neutral: the profiled aggregate must
	// be byte-identical to an untimed run of the same config.
	plain, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Digest != plain.Digest || agg.DecodeDigest != plain.DecodeDigest {
		t.Fatalf("profiled digests %#016x/%#016x != untimed %#016x/%#016x",
			agg.Digest, agg.DecodeDigest, plain.Digest, plain.DecodeDigest)
	}

	// Every stage must be attributed, with one observation per frame.
	want := map[string]bool{"source": false, "transport": false, "receiver": false, "decode": false}
	steps := int64(cfg.Implants * cfg.Ticks)
	for _, s := range prof.Stages {
		seen, ok := want[s.Stage]
		if !ok || seen {
			t.Fatalf("unexpected or duplicate stage %q", s.Stage)
		}
		want[s.Stage] = true
		if s.Count != steps {
			t.Errorf("stage %s count = %d, want %d", s.Stage, s.Count, steps)
		}
		if s.MeanNs <= 0 || s.TotalNs <= 0 {
			t.Errorf("stage %s has empty timing: mean %g ns, total %d ns", s.Stage, s.MeanNs, s.TotalNs)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("stage %s missing from profile", name)
		}
	}
}
