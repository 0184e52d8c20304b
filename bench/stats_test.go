package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	// 1..20 shuffled: nearest rank is ceil(p/100 × n), counted from 1.
	xs := []float64{7, 3, 19, 1, 12, 20, 5, 16, 9, 2, 14, 18, 4, 11, 6, 17, 8, 15, 10, 13}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 10, 10},
		{90, 18, 2},
		{95, 19, 1},
		{99, 20, 0},
		{100, 20, 0},
		{25, 5, 15},
		{5, 1, 19},
		{0, 1, 19}, // rank clamps to the first sample
	}
	for _, c := range cases {
		got, beyond := percentile(xs, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty input: %v, %d", v, b)
	}
}

func TestPercentileSupportsTail(t *testing.T) {
	// 120 pooled blackout samples leave 12 beyond p90: enough to report
	// it. 24 samples do not.
	many := make([]float64, 120)
	for i := range many {
		many[i] = float64(i)
	}
	if _, beyond := percentile(many, 90); beyond != 12 {
		t.Errorf("120 samples: %d beyond p90, want 12", beyond)
	}
	if _, beyond := percentile(many[:24], 90); beyond >= 10 {
		t.Errorf("24 samples: %d beyond p90, want fewer than 10", beyond)
	}
}

func TestReduceThroughputOverSums(t *testing.T) {
	// Throughput is summed frames over summed time: 100 frames in 1 s and
	// 100 in 3 s make 50 frames/s, not the rates' median of 66.7. Other
	// values are medians; setup_s pools the run's set-ups.
	its := []*iteration{newIteration(false), newIteration(false)}
	its[0].frames, its[0].busy = 100, 1
	its[1].frames, its[1].busy = 100, 3
	its[0].values["x"], its[1].values["x"] = 1, 3
	out := reduce(its, []float64{0.5, 0.1, 0.3})
	if out["frames_per_s"] != 50 || out["x"] != 2 || out["setup_s"] != 0.3 {
		t.Errorf("reduce = %v, want frames_per_s 50, x 2, setup_s 0.3", out)
	}
	if out := reduce(nil, nil); out["frames_per_s"] != 0 {
		t.Errorf("no iterations: frames_per_s %v", out["frames_per_s"])
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{Median: 3, Q1: 2, Q3: 4, Min: 1, Max: 5, N: 5}
	if s != want {
		t.Errorf("summary %+v, want %+v", s, want)
	}
}
