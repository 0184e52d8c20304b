package main

import "testing"

// fromReps builds a metric result whose headline is the median of reps.
func fromReps(vals ...float64) *metricResult {
	mr := &metricResult{Samples: vals, summary: summarize(vals)}
	mr.Value = mr.Median
	return mr
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name     string
		dir      string
		bound    float64
		abs      float64
		old, cur *metricResult
		want     string
	}{
		{"within bound", higher, 0.10, 0, fromReps(99, 100, 101), fromReps(94, 95, 96), same},
		{"worse beyond bound", higher, 0.10, 0, fromReps(99, 100, 101), fromReps(84, 85, 86), worse},
		{"better beyond bound", higher, 0.10, 0, fromReps(99, 100, 101), fromReps(119, 120, 121), better},
		{"lower is better, worse", lower, 0.15, 0, fromReps(9.9, 10, 10.1), fromReps(11.9, 12, 12.1), worse},
		{"lower is better, better", lower, 0.15, 0, fromReps(9.9, 10, 10.1), fromReps(7.9, 8, 8.1), better},
		{"spread wider than bound", higher, 0.10, 0, fromReps(70, 100, 130), fromReps(60, 85, 110), unresolved},
		{"wide spread, every new rep better", higher, 0.10, 0, fromReps(70, 100, 130), fromReps(131, 150, 170), better},
		{"wide spread, new reps worse", higher, 0.10, 0, fromReps(70, 100, 130), fromReps(10, 20, 69), unresolved},
		{"absolute floor", lower, 0.15, 0.005, fromReps(0.002, 0.002, 0.002), fromReps(0.006, 0.006, 0.006), same},
		{"absolute floor exceeded", lower, 0.15, 0.005, fromReps(0.002, 0.002, 0.002), fromReps(0.009, 0.009, 0.009), worse},
		// error_rate's headline is failed over attempted, not the median.
		{"exact metric, any increase", lower, 0, 0, fromReps(0, 0, 0), &metricResult{Value: 0.004, Samples: []float64{0, 0, 0.01}}, worse},
		{"exact metric, unchanged", lower, 0, 0, fromReps(0, 0, 0), fromReps(0, 0, 0), same},
	}
	for _, c := range cases {
		if got := verdict(c.dir, c.bound, c.abs, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
