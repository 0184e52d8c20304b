package obs

import (
	"math"
	"sync"
	"testing"
)

func TestStageTimerStats(t *testing.T) {
	st := NewStageTimer()
	src := st.Clock("source")
	dec := st.Clock("decode")
	for i := 0; i < 100; i++ {
		src.Observe(1000)
		dec.Observe(5000)
	}
	stats := st.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d stages, want 2", len(stats))
	}
	// Sorted by name: decode before source.
	if stats[0].Stage != "decode" || stats[1].Stage != "source" {
		t.Fatalf("stage order = %s, %s", stats[0].Stage, stats[1].Stage)
	}
	d := stats[0]
	if d.Count != 100 || d.TotalNs != 500000 {
		t.Errorf("decode count/total = %d/%d, want 100/500000", d.Count, d.TotalNs)
	}
	if d.MeanNs != 5000 {
		t.Errorf("decode mean = %g, want 5000", d.MeanNs)
	}
	// Constant samples: the EWMA converges to the sample exactly (first
	// sample seeds it, every update is a no-op).
	if d.EWMANs != 5000 {
		t.Errorf("decode ewma = %g, want 5000", d.EWMANs)
	}
	// Quantiles land inside the bucket covering 5000ns.
	if d.P50Ns <= 0 || d.P99Ns < d.P50Ns {
		t.Errorf("decode p50/p99 = %g/%g", d.P50Ns, d.P99Ns)
	}
}

// TestStageTimerQuantilesWithinRange is the regression test for the
// BENCH_stage.json artifact where a mostly-no-op decode stage reported
// p50 ≈ 130ns against a mean of ~213µs: with samples far below the
// first histogram bucket mixed with heavy tail samples, every reported
// quantile must still lie within [min, max] of what was recorded.
func TestStageTimerQuantilesWithinRange(t *testing.T) {
	st := NewStageTimer()
	c := st.Clock("decode")
	// Bimodal load: many ~40ns no-op steps, a few ~213µs refit steps —
	// the exact shape that produced the artifact.
	for i := 0; i < 980; i++ {
		c.Observe(40)
	}
	for i := 0; i < 20; i++ {
		c.Observe(213_000)
	}
	s := st.Stats()[0]
	if s.MinNs != 40 || s.MaxNs != 213_000 {
		t.Fatalf("min/max = %d/%d, want 40/213000", s.MinNs, s.MaxNs)
	}
	for _, q := range []struct {
		name string
		v    float64
	}{{"p50", s.P50Ns}, {"p99", s.P99Ns}} {
		if q.v < float64(s.MinNs) || q.v > float64(s.MaxNs) {
			t.Errorf("%s = %g outside observed range [%d, %d]", q.name, q.v, s.MinNs, s.MaxNs)
		}
	}
	// The median of this distribution is a no-op step: p50 must sit at
	// the fast mode, not interpolate into fiction above it.
	if s.P50Ns > 1000 {
		t.Errorf("p50 = %g, want ≤ 1µs (fast mode)", s.P50Ns)
	}
	if s.P99Ns < 100_000 {
		t.Errorf("p99 = %g, want ≥ 100µs (slow mode)", s.P99Ns)
	}
}

func TestStageTimerEWMATracks(t *testing.T) {
	st := NewStageTimer()
	c := st.Clock("transport")
	c.Observe(1000)
	if got := st.Stats()[0].EWMANs; got != 1000 {
		t.Fatalf("ewma after first sample = %g, want 1000", got)
	}
	// A long run at a new level must pull the EWMA most of the way there.
	for i := 0; i < 500; i++ {
		c.Observe(9000)
	}
	got := st.Stats()[0].EWMANs
	if math.Abs(got-9000) > 10 {
		t.Errorf("ewma after 500 samples at 9000 = %g, want ≈9000", got)
	}
}

func TestStageTimerClockReuse(t *testing.T) {
	st := NewStageTimer()
	if st.Clock("receiver") != st.Clock("receiver") {
		t.Error("Clock must return the same handle for the same name")
	}
}

func TestStageTimerNilSafety(t *testing.T) {
	var st *StageTimer
	c := st.Clock("source")
	if c != nil {
		t.Fatal("nil timer must yield nil clocks")
	}
	c.Observe(100) // must not panic
	if c.Name() != "" {
		t.Errorf("nil clock name = %q", c.Name())
	}
	if st.Stats() != nil {
		t.Error("nil timer Stats must be nil")
	}
}

func TestStageTimerConcurrency(t *testing.T) {
	st := NewStageTimer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := st.Clock("shared")
			for i := 0; i < 1000; i++ {
				c.Observe(int64(100 + i%7))
			}
		}()
	}
	wg.Wait()
	s := st.Stats()[0]
	if s.Count != 8000 {
		t.Errorf("count = %d, want 8000", s.Count)
	}
	if s.EWMANs < 100 || s.EWMANs > 107 {
		t.Errorf("ewma = %g, want within [100,107]", s.EWMANs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// 10 observations in [0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	// Median sits exactly at the first bucket's upper edge.
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %g, want 10", got)
	}
	// p25 interpolates halfway into the first bucket (rank 5 of 10).
	if got := h.Quantile(0.25); got != 5 {
		t.Errorf("p25 = %g, want 5", got)
	}
	// p75 interpolates halfway into the second bucket.
	if got := h.Quantile(0.75); got != 15 {
		t.Errorf("p75 = %g, want 15", got)
	}
	// q clamps.
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo != h.Quantile(0) || hi != h.Quantile(1) {
		t.Errorf("quantile clamping: q=-1 → %g, q=2 → %g", lo, hi)
	}
}

func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(5)
	h.Observe(1000) // lands in +Inf overflow
	// The overflow bucket has no upper edge; quantiles landing there clamp
	// to the highest finite bound.
	if got := h.Quantile(0.99); got != 20 {
		t.Errorf("p99 in overflow = %g, want 20 (highest finite bound)", got)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile must be 0")
	}
}

func TestNewHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram with unsorted bounds must panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// The enabled-path costs: a live StageClock.Observe (count/sum atomics,
// CAS EWMA, one histogram bucket) and a live EventLog.Record (mutex +
// ring-slot overwrite). The disabled path is the nil receiver.
func BenchmarkStageClockObserve(b *testing.B) {
	c := NewStageTimer().Clock("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Observe(int64(i&1023) + 100)
	}
}

func BenchmarkStageClockObserveDisabled(b *testing.B) {
	var c *StageClock
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Observe(int64(i))
	}
}

func BenchmarkEventLogRecord(b *testing.B) {
	l := NewEventLog(DefaultEventCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Record("bench_event", "subject", "", EventAttr{Key: "tick", Val: float64(i)})
	}
}

func BenchmarkEventLogRecordDisabled(b *testing.B) {
	var l *EventLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Record("bench_event", "subject", "")
	}
}
