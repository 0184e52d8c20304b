// Package obs is the observability backbone of the MINDFUL runtime
// substrates: a lock-cheap metrics registry (atomic counters, gauges and
// fixed-bucket histograms with labeled families), a bounded ring-buffer
// span tracer, and exporters in Prometheus text and JSON-lines formats.
//
// The paper's whole argument is an accounting exercise — power, bits,
// MACs and temperature per design point — so every runtime substrate
// (implant pipeline, modem, thermal solvers, MAC-array simulator) wires
// its hot path through this package. Instrumentation is designed to
// vanish when unobserved: every instrument method is safe on a nil
// receiver, so an unattached observer costs one inlined nil check per
// call site and no allocations.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric family.
type Label struct {
	Key, Value string
}

// Observer bundles the sinks a component can be wired to: the metrics
// registry, the span tracer, and the flight recorder's structured event
// log. A nil *Observer (or nil fields) short-circuits all
// instrumentation.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	Events  *EventLog
}

// DefaultTraceCapacity is the ring size of New's tracer: large enough to
// hold several thousand pipeline ticks' stage spans.
const DefaultTraceCapacity = 16384

// DefaultEventCapacity is the ring size of New's event log: lifecycle
// and fault-path events are orders of magnitude rarer than spans, so a
// smaller ring retains a long history.
const DefaultEventCapacity = 4096

// New returns an Observer with a fresh registry, a default-capacity
// tracer and a default-capacity event log.
func New() *Observer {
	return &Observer{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(DefaultTraceCapacity),
		Events:  NewEventLog(DefaultEventCapacity),
	}
}

// metric kinds.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return "unknown"
	}
}

// family is one named metric with a fixed kind and a set of labeled
// instruments.
type family struct {
	name    string
	help    string
	kind    kind
	bounds  []float64 // histogram upper bounds (excluding +Inf)
	byLabel map[string]any
}

// Registry is a concurrency-safe collection of metric families. Lookup
// (Counter/Gauge/Histogram) takes the registry lock; the returned
// instruments update via atomics only, so call sites resolve handles once
// and increment without contention.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serializes labels into a canonical map key (sorted by key).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortedLabels returns a sorted copy of labels.
func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func (r *Registry) instrument(name string, k kind, bounds []float64, labels []Label) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, bounds: bounds, byLabel: make(map[string]any)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, k))
	}
	key := labelKey(labels)
	if inst, ok := f.byLabel[key]; ok {
		return inst
	}
	var inst any
	switch k {
	case counterKind:
		inst = &Counter{labels: sortedLabels(labels)}
	case gaugeKind:
		inst = &Gauge{labels: sortedLabels(labels)}
	case histogramKind:
		h := &Histogram{labels: sortedLabels(labels), bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		inst = h
	}
	f.byLabel[key] = inst
	return inst
}

// Counter returns (creating on first use) the counter of the named family
// with the given labels. Nil-receiver safe: returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.instrument(name, counterKind, nil, labels).(*Counter)
}

// Gauge returns (creating on first use) the gauge of the named family with
// the given labels. Nil-receiver safe.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.instrument(name, gaugeKind, nil, labels).(*Gauge)
}

// Histogram returns (creating on first use) the histogram of the named
// family. The bucket bounds of the first registration win; they must be
// sorted ascending. Nil-receiver safe.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	return r.instrument(name, histogramKind, append([]float64(nil), bounds...), labels).(*Histogram)
}

// Help sets the family's help text (shown in the Prometheus exposition).
// Nil-receiver safe; a family that does not exist yet is created lazily on
// first instrument registration and picks the help up at export time only
// if set again — so call Help after registering. Unknown names are stored
// when the family exists, ignored otherwise.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	}
}

// Counter is a monotonically increasing event count.
type Counter struct {
	labels []Label
	v      atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be ≥ 0; negative deltas are ignored to keep the
// counter monotone). Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float sample.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta to the gauge. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Buckets hold
// non-cumulative counts internally; exports are cumulative (Prometheus
// convention).
type Histogram struct {
	labels []Label
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    Gauge
	count  atomic.Int64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// NewHistogram returns a standalone histogram (not attached to any
// registry) with the given ascending bucket bounds — the building block
// behind StageTimer and the loadgen latency estimator. Histograms from
// Registry.Histogram share the same implementation.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation inside the covering bucket — the
// histogram_quantile estimator. Observations are assumed non-negative:
// the first bucket interpolates from 0. A quantile that lands in the
// +Inf overflow bucket is clamped to the highest finite bound (there is
// no upper edge to interpolate toward). Returns 0 on a nil receiver or
// an empty histogram. Under concurrent observation the bucket loads are
// not a consistent snapshot; the estimate is approximate, which is all a
// bucketed quantile ever is.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	total := int64(0)
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	lower := 0.0
	for i, ub := range h.bounds {
		c := counts[i]
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (ub-lower)*frac
		}
		cum += c
		lower = ub
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// ExpBuckets returns n exponentially spaced bounds starting at start with
// the given growth factor — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bounds starting at start.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width > 0, n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
