// Package chaosnet is deterministic network fault injection for the
// cluster control plane — the fault-injection discipline of
// internal/fault lifted from the radio link to HTTP. A Transport wraps
// any http.RoundTripper and injects the failures a distributed control
// plane actually meets: requests that vanish before reaching the peer,
// responses lost after the peer already acted (the case that makes
// idempotency keys load-bearing), bodies severed mid-read, added
// latency, and brief full partitions.
//
// Every decision is seeded and replayable. Draws are keyed by the
// operation's identity (method + path) and a per-operation attempt
// counter, so the fault history of one call sequence does not shift
// when unrelated traffic (health probes, status polls) interleaves with
// it, and a retry of the same operation advances to fresh draws instead
// of hitting the same verdict forever. Profiles scale with an intensity
// knob under common-random-number semantics, mirroring
// internal/fault.Profile: the same (seed, operation, attempt) consumes
// the same uniforms at every intensity, so a request that fails at
// intensity i also fails at every intensity ≥ i and degradation curves
// are monotone by construction, not by luck.
package chaosnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes a fault environment at unit intensity. The zero
// value injects nothing; Scale derives weaker environments for sweeps.
type Profile struct {
	// Drop is the probability a request vanishes before reaching the
	// peer — the peer never sees it, so a retry is always safe.
	Drop float64 `json:"drop"`
	// Reset is the probability the response is lost after the peer
	// fully processed the request — the side effect happened, the caller
	// cannot tell. Retries of non-idempotent operations under Reset are
	// exactly the duplicate-effect bug idempotency keys exist for.
	Reset float64 `json:"reset"`
	// Cut is the probability a response body is severed partway
	// through the read — a torn transfer the reader must detect.
	Cut float64 `json:"cut"`
	// Delay is the probability a request is held for a uniform draw in
	// [DelayMin, DelayMax] before being forwarded.
	Delay    float64       `json:"delay"`
	DelayMin time.Duration `json:"delay_min_ns"`
	DelayMax time.Duration `json:"delay_max_ns"`
	// Partition is the per-request onset probability of a full
	// partition lasting PartitionFor: every request in the window fails
	// immediately, the way a switch rebooting looks to its clients.
	Partition    float64       `json:"partition"`
	PartitionFor time.Duration `json:"partition_for_ns"`
}

// DefaultProfile returns a deliberately harsh unit-intensity
// environment — the stress point chaos sweeps scale down from.
func DefaultProfile() Profile {
	return Profile{
		Drop:         0.12,
		Reset:        0.10,
		Cut:          0.06,
		Delay:        0.20,
		DelayMin:     500 * time.Microsecond,
		DelayMax:     5 * time.Millisecond,
		Partition:    0.01,
		PartitionFor: 50 * time.Millisecond,
	}
}

// clamp01 bounds probabilities to [0, 1].
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Scale returns the profile with every probability multiplied by
// intensity (clamped to [0, 1]); durations are kept. Scale(0) disables
// all injection, Scale(1) is the profile itself.
func (p Profile) Scale(intensity float64) Profile {
	if intensity < 0 {
		intensity = 0
	}
	out := p
	out.Drop = clamp01(p.Drop * intensity)
	out.Reset = clamp01(p.Reset * intensity)
	out.Cut = clamp01(p.Cut * intensity)
	out.Delay = clamp01(p.Delay * intensity)
	out.Partition = clamp01(p.Partition * intensity)
	return out
}

// Validate checks the profile's ranges.
func (p Profile) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"Drop", p.Drop}, {"Reset", p.Reset}, {"Cut", p.Cut},
		{"Delay", p.Delay}, {"Partition", p.Partition},
	}
	for _, pr := range probs {
		if !(pr.v >= 0 && pr.v <= 1) { // also rejects NaN
			return fmt.Errorf("chaosnet: %s = %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.DelayMin < 0 || p.DelayMax < p.DelayMin {
		return fmt.Errorf("chaosnet: delay window [%v, %v] invalid", p.DelayMin, p.DelayMax)
	}
	if p.PartitionFor < 0 {
		return fmt.Errorf("chaosnet: PartitionFor %v negative", p.PartitionFor)
	}
	return nil
}

// Injected fault errors. All surface as transport-level errors (wrapped
// in *url.Error by http.Client), the shape real network failures take.
var (
	ErrDropped     = errors.New("chaosnet: request dropped before reaching the peer")
	ErrReset       = errors.New("chaosnet: connection reset before the response arrived")
	ErrCut         = errors.New("chaosnet: connection cut mid-body")
	ErrPartitioned = errors.New("chaosnet: network partitioned")
)

// Stats counts injected faults since the transport was created.
type Stats struct {
	Requests    int64 `json:"requests"`
	Drops       int64 `json:"drops"`
	Resets      int64 `json:"resets"`
	Cuts        int64 `json:"cuts"`
	Delays      int64 `json:"delays"`
	Partitioned int64 `json:"partitioned"` // requests failed inside a partition window (incl. onsets)
}

// splitmix64 advances a SplitMix64 state and returns the mixed output —
// the same finalizer the fleet's seed sharding uses, giving avalanche
// over nearby keys.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draws is one decision's uniform variates, fully determined by
// (seed, operation key, attempt index) — the common-random-number
// substrate.
type draws struct {
	part, drop, reset, cut, delay, amount float64
}

// uniform maps one SplitMix64 output to [0, 1).
func uniform(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// drawsFor derives the fixed-order uniforms for one (op, attempt).
func drawsFor(seed int64, op string, attempt uint64) draws {
	h := fnv.New64a()
	h.Write([]byte(op))
	state := uint64(seed) ^ h.Sum64() ^ (attempt+1)*0x9e3779b97f4a7c15
	return draws{
		part:   uniform(&state),
		drop:   uniform(&state),
		reset:  uniform(&state),
		cut:    uniform(&state),
		delay:  uniform(&state),
		amount: uniform(&state),
	}
}

// verdict is the decision drawsFor + a profile produce for one request.
type verdict struct {
	partitionOnset bool
	drop           bool
	reset          bool
	cut            bool
	delay          time.Duration
	cutFrac        float64 // fraction of the body delivered before the cut
}

// decide applies a scaled profile to a draw set. Exposed through
// Transport.decide for the determinism and CRN property tests.
func decide(p Profile, d draws) verdict {
	v := verdict{
		partitionOnset: d.part < p.Partition,
		drop:           d.drop < p.Drop,
		reset:          d.reset < p.Reset,
		cut:            d.cut < p.Cut,
		cutFrac:        d.amount,
	}
	if d.delay < p.Delay {
		v.delay = p.DelayMin + time.Duration(d.amount*float64(p.DelayMax-p.DelayMin))
	}
	return v
}

// Transport is a fault-injecting http.RoundTripper. The zero intensity
// passes every request through untouched (while still counting it), so
// a sweep's baseline point runs the exact same code path as its faulted
// points.
type Transport struct {
	inner http.RoundTripper
	prof  Profile
	seed  int64

	intensity atomicFloat
	partUntil atomic.Int64 // unix nanos until which the partition holds

	mu       sync.Mutex
	attempts map[string]uint64 // per-operation attempt counters

	requests    atomic.Int64
	drops       atomic.Int64
	resets      atomic.Int64
	cuts        atomic.Int64
	delays      atomic.Int64
	partitioned atomic.Int64
}

// atomicFloat is a float64 stored in an atomic.Uint64.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Store(v float64) { a.bits.Store(floatBits(v)) }
func (a *atomicFloat) Load() float64   { return floatFromBits(a.bits.Load()) }

// NewTransport wraps inner (nil = http.DefaultTransport) with fault
// injection from prof at the given seed. Intensity starts at 1; use
// SetIntensity to sweep or to gate injection around a run's phases.
func NewTransport(inner http.RoundTripper, prof Profile, seed int64) (*Transport, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	t := &Transport{
		inner:    inner,
		prof:     prof,
		seed:     seed,
		attempts: make(map[string]uint64),
	}
	t.intensity.Store(1)
	return t, nil
}

// SetIntensity rescales injection on the fly (clamped at 0). The draw
// streams are unaffected — common random numbers across intensities.
func (t *Transport) SetIntensity(x float64) {
	if x < 0 {
		x = 0
	}
	t.intensity.Store(x)
}

// Intensity returns the current intensity.
func (t *Transport) Intensity() float64 { return t.intensity.Load() }

// Stats returns the counters' current values.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests:    t.requests.Load(),
		Drops:       t.drops.Load(),
		Resets:      t.resets.Load(),
		Cuts:        t.cuts.Load(),
		Delays:      t.delays.Load(),
		Partitioned: t.partitioned.Load(),
	}
}

// opKey is the operation identity draws are keyed by: method and path,
// without the query (retry loops vary query values like start_paused;
// the operation is the same).
func opKey(req *http.Request) string {
	return req.Method + " " + req.URL.Path
}

// nextAttempt returns and advances the operation's attempt counter.
func (t *Transport) nextAttempt(op string) uint64 {
	t.mu.Lock()
	n := t.attempts[op]
	t.attempts[op] = n + 1
	t.mu.Unlock()
	return n
}

// decide derives the verdict for one request at the current intensity.
func (t *Transport) decide(op string) verdict {
	d := drawsFor(t.seed, op, t.nextAttempt(op))
	return decide(t.prof.Scale(t.Intensity()), d)
}

// RoundTrip injects faults around the inner transport. Error order:
// an active partition beats everything; a partition onset opens the
// window and fails the request; drop fails before the peer is reached;
// delay holds the request; reset forwards the request and then loses
// the response; cut forwards and severs the body partway.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inner := t.inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	t.requests.Add(1)
	now := time.Now()
	if now.UnixNano() < t.partUntil.Load() {
		t.partitioned.Add(1)
		return nil, ErrPartitioned
	}
	v := t.decide(opKey(req))
	if v.partitionOnset {
		t.partUntil.Store(now.Add(t.prof.PartitionFor).UnixNano())
		t.partitioned.Add(1)
		return nil, ErrPartitioned
	}
	if v.drop {
		t.drops.Add(1)
		return nil, ErrDropped
	}
	if v.delay > 0 {
		t.delays.Add(1)
		time.Sleep(v.delay)
	}
	if v.reset {
		// The peer processes the request in full; only the response is
		// lost. Draining the body makes "processed" unambiguous even for
		// streamed handlers.
		resp, err := inner.RoundTrip(req)
		if err == nil {
			drainClose(resp)
		}
		t.resets.Add(1)
		return nil, ErrReset
	}
	resp, err := inner.RoundTrip(req)
	if err != nil || !v.cut {
		return resp, err
	}
	t.cuts.Add(1)
	resp.Body = newCutBody(resp.Body, v.cutFrac, resp.ContentLength)
	return resp, nil
}
