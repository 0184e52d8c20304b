package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// StageTimer attributes wall time to named pipeline stages: per-stage
// ns/frame histograms plus an exponentially weighted moving average.
// The design splits registration from observation the same way the
// metrics registry does — Clock(name) takes a mutex once, the returned
// *StageClock records with atomics only — so worker goroutines sharing
// one timer never contend, and a nil timer (or nil clock) is a single
// inlined nil check: the zero-alloc disabled path.

// ewmaAlpha is the smoothing factor of the per-stage moving average:
// ~1/64 weight per sample, so the EWMA settles over a few hundred
// frames and tracks drift without whipsawing on scheduler noise.
const ewmaAlpha = 1.0 / 64

// stageTimerBuckets spans 16ns..~125ms in exponential steps — wide
// enough that a no-op decode step (tens of ns) and a Kalman refit
// (hundreds of µs) both land in interior buckets of the same histogram.
// The quantile estimates are additionally clamped to the observed
// [min, max] in Stats, so a sub-first-bucket sample can never report a
// p50 below the fastest recorded step (the BENCH_stage.json p50 ≈ 130ns
// vs mean ≈ 213µs artifact).
func stageTimerBuckets() []float64 {
	return ExpBuckets(16, 1.8, 28)
}

// StageClock is the per-stage recording handle. Observe is atomic-only
// and safe on a nil receiver.
type StageClock struct {
	name     string
	count    atomic.Int64
	sumNs    atomic.Int64
	minNs    atomic.Int64 // MaxInt64 until the first observation
	maxNs    atomic.Int64
	ewmaBits atomic.Uint64 // float64 bits; 0 = unset
	hist     *Histogram
}

// Observe records one frame's duration in nanoseconds. Safe on a nil
// receiver (no-op) — the disabled path.
func (c *StageClock) Observe(ns int64) {
	if c == nil {
		return
	}
	c.count.Add(1)
	c.sumNs.Add(ns)
	c.hist.Observe(float64(ns))
	c.observeRange(ns)
	c.observeEWMA(float64(ns))
}

func (c *StageClock) observeRange(ns int64) {
	for {
		old := c.minNs.Load()
		if ns >= old || c.minNs.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := c.maxNs.Load()
		if ns <= old || c.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
}

func (c *StageClock) observeEWMA(ns float64) {
	for {
		old := c.ewmaBits.Load()
		var next float64
		if old == 0 {
			next = ns
		} else {
			cur := math.Float64frombits(old)
			next = cur + ewmaAlpha*(ns-cur)
		}
		if c.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Name returns the stage name ("" on a nil receiver).
func (c *StageClock) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// StageStats is one stage's timing summary. The quantiles are
// histogram estimates clamped to [MinNs, MaxNs], so p50/p99 always lie
// within the range of recorded samples.
type StageStats struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	MeanNs  float64 `json:"mean_ns"`
	EWMANs  float64 `json:"ewma_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
	MinNs   int64   `json:"min_ns"`
	MaxNs   int64   `json:"max_ns"`
	TotalNs int64   `json:"total_ns"`
}

// StageTimer is a registry of StageClocks keyed by stage name. Safe for
// concurrent use; every method is safe on a nil receiver.
type StageTimer struct {
	mu     sync.Mutex
	clocks map[string]*StageClock
}

// NewStageTimer returns an empty stage timer.
func NewStageTimer() *StageTimer {
	return &StageTimer{clocks: make(map[string]*StageClock)}
}

// Clock returns (creating on first use) the named stage's recording
// handle. Resolve once outside the hot path; the handle observes with
// atomics only. Returns nil on a nil receiver, so a disabled timer
// yields nil clocks and Observe short-circuits.
func (t *StageTimer) Clock(name string) *StageClock {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.clocks[name]
	if !ok {
		c = &StageClock{name: name, hist: NewHistogram(stageTimerBuckets())}
		c.minNs.Store(math.MaxInt64)
		t.clocks[name] = c
	}
	return c
}

// Stats returns every stage's summary, sorted by stage name for stable
// output. Safe on a nil receiver (returns nil).
func (t *StageTimer) Stats() []StageStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	clocks := make([]*StageClock, 0, len(t.clocks))
	for _, c := range t.clocks {
		clocks = append(clocks, c)
	}
	t.mu.Unlock()
	sort.Slice(clocks, func(i, j int) bool { return clocks[i].name < clocks[j].name })
	out := make([]StageStats, 0, len(clocks))
	for _, c := range clocks {
		n := c.count.Load()
		sum := c.sumNs.Load()
		s := StageStats{
			Stage:   c.name,
			Count:   n,
			TotalNs: sum,
			EWMANs:  math.Float64frombits(c.ewmaBits.Load()),
			P50Ns:   c.hist.Quantile(0.50),
			P99Ns:   c.hist.Quantile(0.99),
		}
		if n > 0 {
			s.MeanNs = float64(sum) / float64(n)
			s.MinNs = c.minNs.Load()
			s.MaxNs = c.maxNs.Load()
			// Histogram quantiles interpolate within bucket bounds, which
			// can stray outside the observed range (most visibly below the
			// first bucket); clamp them to [min, max] so the summary never
			// reports a quantile no sample attained.
			s.P50Ns = clampQuantile(s.P50Ns, s.MinNs, s.MaxNs)
			s.P99Ns = clampQuantile(s.P99Ns, s.MinNs, s.MaxNs)
		}
		out = append(out, s)
	}
	return out
}

func clampQuantile(q float64, min, max int64) float64 {
	if q < float64(min) {
		return float64(min)
	}
	if q > float64(max) {
		return float64(max)
	}
	return q
}
