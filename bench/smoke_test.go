package main

import (
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs every workload at a tiny size through one
// untraced and one traced iteration: outputs must check out, every
// metric must be reported, and the traced parts must add up.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, 7, 0, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
			}
			for _, m := range endToEnd {
				if _, ok := rep.EndToEnd[m.Name]; ok != m.appliesTo(w.name) {
					t.Errorf("end-to-end %s reported=%v", m.Name, ok)
				}
			}
			for _, m := range endToEnd {
				if m.gated() && rep.EndToEnd[m.Name] <= 0 {
					t.Errorf("gated metric %s = %v, want > 0", m.Name, rep.EndToEnd[m.Name])
				}
			}
			line := benchmarkLine(rep)
			if !line.Correct || len(line.Metrics) != len(perLayer) {
				t.Errorf("traced benchmark line: correct=%v, %d metrics", line.Correct, len(line.Metrics))
			}
			if len(rep.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), rep.spans); err != nil {
				t.Fatal(err)
			}
			checkParts(t, w.name, rep)
		})
	}
}

// checkParts asserts the per-layer decompositions: stage shares and the
// runner's share make up the workers' time, and the blackout parts leave
// no self time in the blackout span.
func checkParts(t *testing.T, name string, rep *runReport) {
	t.Helper()
	switch name {
	case "fleet-clean", "fleet-decode", "fleet-lossy":
		sum := rep.PerLayer["fleet.runner_share"]
		for _, s := range []string{"source", "transport", "receiver", "decode", "adapt"} {
			sum += rep.PerLayer[s+".share"]
		}
		if d := sum - 1; d > 1e-9 || d < -1e-9 {
			t.Errorf("runner share + stage shares = %v, want 1", sum)
		}
		if rep.PerLayer["source.ns_per_frame"] <= 0 {
			t.Error("no source stage timing")
		}
	case "cluster-migrate":
		if rep.PerLayer["cluster.resubscribes"] == 0 {
			t.Error("no migration was seen by the subscriber")
		}
		if self := rep.SpanSelfMs["cluster.blackout"]; self != 0 {
			t.Errorf("blackout self time %v ms, want 0", self)
		}
	}
}

// TestAggregateRequiresAgreement checks the benchmark of record's
// correctness gate: reps that disagree on the digest fail the result,
// and blackout percentiles pool every rep's samples.
func TestAggregateRequiresAgreement(t *testing.T) {
	untraced := make(map[string][]*runReport)
	traced := make(map[string]*runReport)
	for _, w := range workloads {
		for i := 0; i < 3; i++ {
			untraced[w.name] = append(untraced[w.name], &runReport{
				Digest: "d", Attempted: 10, EndToEnd: map[string]float64{"frames_per_s": float64(100 + i)},
				BlackoutMs: []float64{float64(i), float64(i + 10)},
			})
		}
		traced[w.name] = &runReport{Digest: "d", Attempted: 10}
	}
	prov := provenance{NumCPU: 2}
	res := aggregate(prov, untraced, traced)
	if !res.Correct {
		t.Fatalf("agreeing reps judged incorrect: %+v", res.Workloads["fleet-clean"].Failures)
	}
	fps := res.Workloads["fleet-clean"].EndToEnd["frames_per_s"]
	if fps.Value != 101 || fps.N != 3 || fps.Min != 100 || fps.Max != 102 {
		t.Errorf("frames_per_s %+v", fps)
	}
	b := res.Workloads["cluster-migrate"].EndToEnd["blackout_p90_ms"]
	if b.Pooled != 6 || b.Value != 12 {
		t.Errorf("pooled blackout p90 %+v, want 12 over 6 samples", b)
	}

	untraced["fleet-lossy"][1].Digest = "other"
	if res := aggregate(prov, untraced, traced); res.Correct || res.Workloads["fleet-lossy"].Failed != 1 {
		t.Error("a rep with a different digest passed the gate")
	}
}
