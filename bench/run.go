package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	why    string
	config string
	// open prepares a runner for the base seed: it builds the inputs and
	// any reference output, outside every timed section. tiny shrinks
	// the workload to a smoke-test size.
	open func(seed int64, tiny bool) (runner, error)
}

// runner drives one workload inside one process.
type runner interface {
	// setup measures one set-up of the workload and tears it down again;
	// the run repeats it to report set-up time as a median.
	setup() (time.Duration, error)
	// iterate runs the workload once; setup is the run's median set-up
	// time so far. tr is nil when the iteration is untraced.
	iterate(tr *tracer, trace string, setup float64) (*iteration, error)
	// workers is the number of worker goroutines the workload asks for
	// (0 when it has none), for the scaling label.
	workers() int
}

// iteration is what one run of a workload measured.
type iteration struct {
	traced bool
	// values are per-iteration metric values by metric name; a run
	// reports their median.
	values map[string]float64
	// frames were produced in busy seconds of steady state; a run reports
	// frames_per_s over the sums (see reduce).
	frames, busy float64
	// samples are raw observations by sample name, pooled across a run's
	// iterations before percentiles are taken (see pooled).
	samples map[string][]float64
	// exact are counts that must repeat bit-for-bit on every iteration.
	exact map[string]float64
	// digest fingerprints the workload's output; every iteration of one
	// seed must produce the same one.
	digest    string
	attempted int64
	failed    int64
	failures  []string
}

func newIteration(traced bool) *iteration {
	return &iteration{
		traced:  traced,
		values:  make(map[string]float64),
		samples: make(map[string][]float64),
		exact:   make(map[string]float64),
	}
}

// fail counts n failed operations with a reason.
func (it *iteration) fail(n int64, format string, args ...any) {
	it.failed += n
	it.failures = append(it.failures, fmt.Sprintf(format, args...))
}

// runReport is one run's result: what the benchmark line prints, plus
// the detail the benchmark of record aggregates across reps.
type runReport struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Iterations int                `json:"iterations"`
	Workers    int                `json:"workers"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// BlackoutMs keeps the raw blackout samples, which the benchmark of
	// record pools across reps.
	BlackoutMs []float64          `json:"blackout_ms,omitempty"`
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
	spans      []span
}

// setupsPerRound is how many set-ups a run measures before each
// iteration: a run of the slowest workloads has only two or three
// rounds, and setup_s is the median over all of them.
const setupsPerRound = 6

// runWorkload opens a workload and runs rounds of set-ups and one
// iteration for about seconds: it stops before a round that would end
// more than half a round past the mark, so a run lasts about as long
// whatever one round takes. Set-ups are spread over the whole run, like
// the iterations, so a slow spell on a shared machine weighs on both
// alike. One discarded set-up first pays for cold caches and lazy
// initialisation. A traced run alternates untraced and traced
// iterations, at least one of each, so the tracing overhead is measured
// in the same process.
func runWorkload(w *workload, seed int64, seconds float64, traced, tiny bool) (*runReport, error) {
	r, err := w.open(seed, tiny)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	if _, err := r.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	tr := (*tracer)(nil)
	if traced {
		tr = &tracer{}
	}
	var setups []float64
	var its []*iteration
	start := time.Now()
	for i := 0; ; i++ {
		// Every set-up and iteration starts from a collected heap, so
		// garbage from the one before is not collected on its clock. A
		// set-up reuses the pages the last iteration left mapped: a few
		// milliseconds of page faults would swing with the machine's
		// memory traffic. Before an iteration the freed pages go back to
		// the OS and the peak RSS is reset, so each iteration's growth
		// is its own and a run reports their median.
		for k := 0; k < setupsPerRound; k++ {
			runtime.GC()
			d, err := r.setup()
			if err != nil {
				return nil, fmt.Errorf("%s: setup: %w", w.name, err)
			}
			setups = append(setups, d.Seconds())
		}
		isTraced := traced && i%2 == 1
		itTracer := (*tracer)(nil)
		if isTraced {
			itTracer = tr
		}
		debug.FreeOSMemory()
		base, err := resetPeakRSS()
		if err != nil {
			return nil, err
		}
		it, err := r.iterate(itTracer, fmt.Sprintf("iteration-%d", i), median(setups))
		if err != nil {
			return nil, fmt.Errorf("%s: iteration %d: %w", w.name, i, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		it.values["rss_growth_mb"] = peak - base
		its = append(its, it)
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(2*(i+1)) >= seconds && (!traced || i >= 1) {
			break
		}
	}
	rep := summarizeRun(w.name, seed, traced, its, setups)
	rep.Workers = r.workers()
	if traced {
		rep.spans = tr.all()
		rep.SpanSelfMs = selfByName(rep.spans)
	}
	return rep, nil
}

// summarizeRun reduces a run's iterations (see reduce) and makes the
// cross-iteration correctness checks: digests and exact counts must
// repeat.
func summarizeRun(name string, seed int64, traced bool, its []*iteration, setups []float64) *runReport {
	rep := &runReport{
		Workload:   name,
		Seed:       seed,
		Traced:     traced,
		Iterations: len(its),
		Digest:     its[0].digest,
		EndToEnd:   make(map[string]float64),
	}
	for _, it := range its {
		rep.Attempted += it.attempted
		rep.Failed += it.failed
		rep.Failures = append(rep.Failures, it.failures...)
		if it.digest != rep.Digest {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("digest %s differs from first iteration's %s", it.digest, rep.Digest))
		}
		for k, v := range it.exact {
			if v != its[0].exact[k] {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("count %s = %v differs from first iteration's %v", k, v, its[0].exact[k]))
			}
		}
	}

	var untraced, tracedIts []*iteration
	for _, it := range its {
		if it.traced {
			tracedIts = append(tracedIts, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	e2e := reduce(untraced, setups)
	for _, m := range endToEnd {
		if m.Name == "error_rate" || !m.appliesTo(name) {
			continue
		}
		rep.EndToEnd[m.Name] = e2e[m.Name]
	}
	rep.EndToEnd["error_rate"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.BlackoutMs = poolSamples(untraced, "blackout_ms")

	if traced {
		layer := reduce(tracedIts, setups)
		rep.PerLayer = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			rep.PerLayer[m.Name] = layer[m.Name]
		}
		if u, t := e2e["frames_per_s"], layer["frames_per_s"]; u > 0 {
			rep.PerLayer["bench.trace_overhead_pct"] = (u - t) / u * 100
		}
	}
	return rep
}

// reduce turns iterations into metric values: frames_per_s over the
// iterations' summed frames and busy time, pooled percentiles for the
// metrics in pooled, and medians for everything else. Other tenants of a
// shared machine slow CPU-bound work to ~0.55× for seconds to minutes at
// a time. Of the estimators tried on traces of such a machine — median,
// trimmed mean, 75th and 90th percentile, fastest iteration, total
// throughput — total throughput spread past 25% across runs least
// often; the fastest iteration swings with whether a run caught a brief
// fast spell.
func reduce(its []*iteration, setups []float64) map[string]float64 {
	out := make(map[string]float64)
	vals := make(map[string][]float64)
	var frames, busy float64
	for _, it := range its {
		for k, v := range it.values {
			vals[k] = append(vals[k], v)
		}
		for k, v := range it.exact {
			vals[k] = append(vals[k], v)
		}
		frames += it.frames
		busy += it.busy
	}
	for k, v := range vals {
		out[k] = median(v)
	}
	if busy > 0 {
		out["frames_per_s"] = frames / busy
	}
	for name, p := range pooled {
		xs := poolSamples(its, p.sample)
		if p.sample == "setup_s" {
			xs = append(xs, setups...)
		}
		if len(xs) > 0 {
			out[name] = pct(xs, p.p)
		}
	}
	return out
}

func poolSamples(its []*iteration, name string) []float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, it.samples[name]...)
	}
	return xs
}

// line is the benchmark's last line of output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmarkLine renders a run as the benchmark line: the gated
// end-to-end metrics untraced, every per-layer metric traced.
func benchmarkLine(rep *runReport) line {
	l := line{
		Correct:   rep.Failed == 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   make(map[string]lineMetric),
	}
	if rep.Traced {
		for _, m := range perLayer {
			l.Metrics[m.Name] = lineMetric{rep.PerLayer[m.Name], m.Unit}
		}
		return l
	}
	for _, m := range endToEnd {
		if m.gated() {
			l.Metrics[m.Name] = lineMetric{rep.EndToEnd[m.Name], m.Unit}
		}
	}
	return l
}

// resetPeakRSS sets this process's peak resident set size back to its
// current one (Linux clear_refs "5") and returns it, so peakRSSMB then
// reads the peak of what ran since.
func resetPeakRSS() (float64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	return peakRSSMB()
}

// peakRSSMB is this process's peak resident set size since the last
// resetPeakRSS: VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(v, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTime is this process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
