// Package detrand wraps math/rand with draw counting so a generator's
// state can be serialized and restored exactly. The checkpoint/restore
// machinery (internal/serve) needs to freeze a live pipeline mid-run and
// later resume it bit-identically, but math/rand's generator state is not
// exported. detrand sidesteps that: the wrapped source produces exactly
// the same value sequence as rand.New(rand.NewSource(seed)) while counting
// every source step, so a stream's full state is the pair (seed, draws).
// Restore re-seeds and fast-forwards the counted number of steps — O(n)
// in draws, which for simulation workloads (a few hundred draws per tick)
// is microseconds per restored stream.
//
// The equality invariant is load-bearing for every digest pin in the
// repository: swapping a component's *rand.Rand for *detrand.Rand must not
// move a single byte of simulator output. TestSequenceMatchesMathRand
// pins it.
//
// The generator itself is math/rand's additive lagged Fibonacci source,
// copied verbatim into rng.go (only the package line differs, so a diff
// against $GOROOT/src/math/rand/rng.go is its review). Holding it by
// value lets the bulk samplers, the fast samplers and the Restore
// fast-forward step it with direct, inlinable calls instead of two
// interface dispatches per draw.
package detrand

import (
	"fmt"
	"math/rand"
)

// State is a stream's serializable position: the seed it started from and
// the number of source steps consumed since.
type State struct {
	Seed  int64
	Draws uint64
}

// source wraps math/rand's generator, counting steps. Both Int63 and
// Uint64 advance the underlying generator by exactly one step, so the
// count is the generator's absolute position regardless of which
// top-level rand.Rand method triggered the draw.
type source struct {
	rng   rngSource
	draws uint64
}

// newSource returns a counting source seeded like rand.NewSource(seed).
func newSource(seed int64) *source {
	s := new(source)
	s.rng.Seed(seed)
	return s
}

func (s *source) Int63() int64 {
	s.draws++
	return s.rng.Int63()
}

func (s *source) Uint64() uint64 {
	s.draws++
	return s.rng.Uint64()
}

func (s *source) Seed(seed int64) {
	s.draws = 0
	s.rng.Seed(seed)
}

// Rand is a *rand.Rand whose position is observable and restorable. All
// rand.Rand methods are available through embedding and produce exactly
// the values the stock generator would.
type Rand struct {
	*rand.Rand
	seed int64
	cnt  *source
}

// New returns a counting generator seeded like rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	cnt := newSource(seed)
	return &Rand{Rand: rand.New(cnt), seed: seed, cnt: cnt}
}

// State returns the stream's serializable position.
func (r *Rand) State() State {
	return State{Seed: r.seed, Draws: r.cnt.draws}
}

// Draws returns the number of source steps consumed so far.
func (r *Rand) Draws() uint64 { return r.cnt.draws }

// Restore rebuilds a generator at the recorded position by re-seeding and
// fast-forwarding st.Draws steps.
func Restore(st State) *Rand {
	r := New(st.Seed)
	// Skip on the raw source so the counter ends exactly at st.Draws and
	// rand.Rand's internal caches are untouched (they only matter for
	// Read, which nothing in this repository uses).
	for i := uint64(0); i < st.Draws; i++ {
		r.cnt.rng.Uint64()
	}
	r.cnt.draws = st.Draws
	return r
}

// RestoreInto validates that st belongs to the stream r was created on
// (same seed, position not behind r's current one when r is freshly
// constructed) and returns the restored generator. It exists for
// components that rebuild themselves from config first — their
// construction draws must be a prefix of the recorded stream.
func RestoreInto(r *Rand, st State) (*Rand, error) {
	if st.Seed != r.seed {
		return nil, fmt.Errorf("detrand: state seed %d does not match stream seed %d", st.Seed, r.seed)
	}
	if st.Draws < r.cnt.draws {
		return nil, fmt.Errorf("detrand: state position %d behind construction position %d", st.Draws, r.cnt.draws)
	}
	return Restore(st), nil
}
