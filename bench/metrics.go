package main

// metricSpec is one reported metric: its unit, which direction is
// better and, for end-to-end metrics, the regression bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the old median a change may worsen the
	// metric by before -compare calls it worse; Abs is an absolute floor
	// under that allowance. Per-layer metrics have neither.
	Bound float64
	Abs   float64
	// Workloads restricts an end-to-end metric to the workloads that
	// have it (nil = every workload).
	Workloads []string
	// OfRecordOnly keeps a metric out of BENCHMARK.json: error_rate is
	// zero by design, and the benchmark line carries it as
	// attempted/failed instead.
	OfRecordOnly bool
}

const (
	higher = "higher"
	lower  = "lower"
)

var (
	servingWorkloads = []string{"serve-realtime", "cluster-migrate"}
	clusterWorkloads = []string{"cluster-migrate"}
)

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. Those that every workload has and that are never zero are
// the ones BENCHMARK.json gates; lateness and blackout exist only where
// a subscriber reads a paced session, so BENCHMARK.json can list them
// only under per_layer, and the benchmark of record bounds them here.
var endToEnd = []metricSpec{
	{Name: "frames_per_s", Unit: "frames/s", Better: higher, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Abs: 0.005},
	{Name: "rss_growth_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "pace_ratio", Unit: "ratio", Better: higher, Bound: 0.10, Abs: 0.05, Workloads: servingWorkloads},
	{Name: "error_rate", Unit: "ratio", Better: lower, OfRecordOnly: true},
	{Name: "lateness_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: servingWorkloads},
	{Name: "lateness_p99_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: servingWorkloads},
	{Name: "blackout_p50_ms", Unit: "ms", Better: lower, Bound: 0.15, Workloads: clusterWorkloads},
	{Name: "blackout_p90_ms", Unit: "ms", Better: lower, Bound: 0.15, Workloads: clusterWorkloads},
}

// gated reports whether BENCHMARK.json lists the metric as end-to-end.
func (m metricSpec) gated() bool { return m.Workloads == nil && !m.OfRecordOnly }

// appliesTo reports whether an end-to-end metric exists on a workload.
func (m metricSpec) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// perLayer lists the traced run's layer metrics. A layer a workload
// does not run reads 0. Layers are named after the modules: source =
// neural/ADC/packetizer, transport = comm, receiver = wearable, then
// decode, adapt (drift + recalibration), the fleet runner, serve,
// cluster and the bench itself. README.md records which end-to-end
// metric each one should move, on which workload.
var perLayer = []metricSpec{
	{Name: "source.ns_per_frame", Unit: "ns", Better: lower},
	{Name: "source.share", Unit: "ratio", Better: lower},
	{Name: "transport.ns_per_frame", Unit: "ns", Better: lower},
	{Name: "transport.share", Unit: "ratio", Better: lower},
	{Name: "transport.p99_ns", Unit: "ns", Better: lower},
	{Name: "receiver.ns_per_frame", Unit: "ns", Better: lower},
	{Name: "receiver.share", Unit: "ratio", Better: lower},
	{Name: "decode.ns_per_frame", Unit: "ns", Better: lower},
	{Name: "decode.share", Unit: "ratio", Better: lower},
	{Name: "decode.ns_per_step", Unit: "ns", Better: lower},
	{Name: "adapt.ns_per_frame", Unit: "ns", Better: lower},
	{Name: "adapt.share", Unit: "ratio", Better: lower},
	{Name: "fleet.runner_share", Unit: "ratio", Better: lower},
	{Name: "fleet.setup_us_per_implant", Unit: "us", Better: lower},
	{Name: "fleet.allocs_per_frame", Unit: "count", Better: lower},
	{Name: "fleet.heap_bytes_per_frame", Unit: "bytes", Better: lower},
	{Name: "comm.bits_sent", Unit: "count", Better: lower},
	{Name: "comm.bit_errors", Unit: "count", Better: lower},
	{Name: "comm.retransmits", Unit: "count", Better: lower},
	{Name: "comm.fec_corrected", Unit: "count", Better: higher},
	{Name: "comm.goodput_ratio", Unit: "ratio", Better: higher},
	{Name: "wearable.accepted", Unit: "count", Better: higher},
	{Name: "wearable.concealed", Unit: "count", Better: lower},
	{Name: "decode.steps", Unit: "count", Better: higher},
	{Name: "decode.macs", Unit: "count", Better: lower},
	{Name: "adapt.refits", Unit: "count", Better: lower},
	{Name: "drift.epochs", Unit: "count", Better: higher},
	{Name: "pace_ratio", Unit: "ratio", Better: higher},
	{Name: "lateness_p50_ms", Unit: "ms", Better: lower},
	{Name: "lateness_p99_ms", Unit: "ms", Better: lower},
	{Name: "blackout_p50_ms", Unit: "ms", Better: lower},
	{Name: "blackout_p90_ms", Unit: "ms", Better: lower},
	{Name: "serve.tick_period_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.tick_period_ms_p99", Unit: "ms", Better: lower},
	{Name: "serve.due_to_publish_ms_p99", Unit: "ms", Better: lower},
	{Name: "serve.publish_to_read_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.publish_to_read_ms_p99", Unit: "ms", Better: lower},
	{Name: "serve.goroutines_per_session", Unit: "count", Better: lower},
	{Name: "serve.cpu_us_per_tick", Unit: "us", Better: lower},
	{Name: "serve.create_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.create_ms_p99", Unit: "ms", Better: lower},
	{Name: "serve.dropped", Unit: "count", Better: lower},
	{Name: "serve.evicted", Unit: "count", Better: lower},
	{Name: "cluster.sever_detect_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.resubscribe_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.first_record_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.migrate_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.migrate_ms_p90", Unit: "ms", Better: lower},
	{Name: "cluster.create_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.migrations_failed", Unit: "count", Better: lower},
	{Name: "cluster.resubscribes", Unit: "count", Better: lower},
	{Name: "cluster.records_skipped", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.driver_lag_ms_p99", Unit: "ms", Better: lower},
}

// pooled names the metrics computed as a percentile over raw samples
// pooled across a run's iterations (and, for blackout, across the reps
// of the benchmark of record) rather than as a median of per-iteration
// values.
var pooled = map[string]struct {
	sample string
	p      float64
}{
	"lateness_p50_ms":              {"lateness_ms", 50},
	"lateness_p99_ms":              {"lateness_ms", 99},
	"blackout_p50_ms":              {"blackout_ms", 50},
	"blackout_p90_ms":              {"blackout_ms", 90},
	"setup_s":                      {"setup_s", 50},
	"serve.tick_period_ms_p50":     {"tick_period_ms", 50},
	"serve.tick_period_ms_p99":     {"tick_period_ms", 99},
	"serve.due_to_publish_ms_p99":  {"due_to_publish_ms", 99},
	"serve.publish_to_read_ms_p50": {"publish_to_read_ms", 50},
	"serve.publish_to_read_ms_p99": {"publish_to_read_ms", 99},
	"serve.create_ms_p50":          {"create_ms", 50},
	"serve.create_ms_p99":          {"create_ms", 99},
	"cluster.sever_detect_ms_p50":  {"sever_detect_ms", 50},
	"cluster.resubscribe_ms_p50":   {"resubscribe_ms", 50},
	"cluster.first_record_ms_p50":  {"first_record_ms", 50},
	"cluster.migrate_ms_p50":       {"migrate_ms", 50},
	"cluster.migrate_ms_p90":       {"migrate_ms", 90},
	"cluster.create_ms_p50":        {"cluster_create_ms", 50},
	"bench.driver_lag_ms_p99":      {"driver_lag_ms", 99},
}
