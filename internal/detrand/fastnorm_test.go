package detrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestFastSamplersBitIdentical replays long interleaved sequences and
// checks the fast samplers agree bit-for-bit with the stock methods on
// an identically seeded twin. The sequence length covers the ziggurat
// tail and wedge branches many times over.
func TestFastSamplersBitIdentical(t *testing.T) {
	if !zigOK {
		t.Fatal("ziggurat self-check failed at init; fast path is disabled")
	}
	for _, seed := range []int64{0, 1, 3, 99, -7, 1 << 40} {
		a := New(seed)
		b := New(seed)
		for i := 0; i < 200_000; i++ {
			switch i % 3 {
			case 0:
				ref, got := a.NormFloat64(), b.FastNormFloat64()
				if math.Float64bits(ref) != math.Float64bits(got) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != fast %v", seed, i, ref, got)
				}
			case 1:
				if ref, got := a.Float64(), b.FastFloat64(); ref != got {
					t.Fatalf("seed %d draw %d: Float64 %v != fast %v", seed, i, ref, got)
				}
			default:
				// Mixing stock calls on the same stream must stay aligned:
				// the fast methods share the underlying counting source.
				if ref, got := a.Int63(), b.Int63(); ref != got {
					t.Fatalf("seed %d draw %d: Int63 %v != %v", seed, i, ref, got)
				}
			}
		}
		if a.Draws() != b.Draws() {
			t.Fatalf("seed %d: draw counts diverged: %d vs %d", seed, a.Draws(), b.Draws())
		}
	}
}

// TestFastSamplersCountDraws pins that the fast path consumes exactly
// the same number of source steps as the stock path, so checkpoints
// taken around fast draws restore identically.
func TestFastSamplersCountDraws(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		r.FastNormFloat64()
		r.FastFloat64()
	}
	st := r.State()
	resumed, err := RestoreInto(New(17), st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		want, got := r.NormFloat64(), resumed.FastNormFloat64()
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("draw %d after restore: %v != %v", i, want, got)
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

func BenchmarkFastNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.FastNormFloat64()
	}
	_ = sink
}

func BenchmarkFastFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.FastFloat64()
	}
	_ = sink
}

// TestFillNormBitIdentical pins the bulk sampler against the stock
// per-call sequence, including draw-count equality across odd slab
// sizes (rejection paths consume extra steps; the batched counter must
// land exactly where per-call counting would).
func TestFillNormBitIdentical(t *testing.T) {
	if !zigOK {
		t.Fatal("ziggurat self-check failed at init; fast path is disabled")
	}
	for _, seed := range []int64{0, 1, 3, 99, -7, 1 << 40} {
		a, b := New(seed), New(seed)
		buf := make([]float64, 0, 257)
		for _, n := range []int{1, 2, 7, 64, 257, 1000} {
			if cap(buf) < n {
				buf = make([]float64, n)
			}
			buf = buf[:n]
			b.FillNorm(buf)
			for i := 0; i < n; i++ {
				want := a.NormFloat64()
				if math.Float64bits(want) != math.Float64bits(buf[i]) {
					t.Fatalf("seed %d block %d draw %d: %v != %v", seed, n, i, buf[i], want)
				}
			}
			if a.Draws() != b.Draws() {
				t.Fatalf("seed %d block %d: draws %d != %d", seed, n, b.Draws(), a.Draws())
			}
			// Interleave a uniform draw so the streams stay aligned through
			// mixed use.
			if a.Float64() != b.FastFloat64() {
				t.Fatalf("seed %d: interleaved uniform diverged", seed)
			}
		}
	}
}

func BenchmarkFillNorm(b *testing.B) {
	r := New(1)
	buf := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FillNorm(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/draw")
}

// TestFillFloat64BitIdentical pins the bulk uniform sampler against
// per-call Float64 on a twin stream, interleaved with Float64 and
// NormFloat64 calls (whose ziggurat rejections consume extra steps),
// with the draw counts equal after every block.
func TestFillFloat64BitIdentical(t *testing.T) {
	if !zigOK {
		t.Fatal("ziggurat self-check failed at init; fast path is disabled")
	}
	for _, seed := range sequenceSeeds {
		a, b := New(seed), New(seed)
		buf := make([]float64, 1000)
		for round, n := range []int{0, 1, 2, 7, 64, 257, 1000, 3, 607, 608} {
			b.FillFloat64(buf[:n])
			for i := 0; i < n; i++ {
				if want := a.Float64(); math.Float64bits(want) != math.Float64bits(buf[i]) {
					t.Fatalf("seed %d block %d draw %d: %v != %v", seed, n, i, buf[i], want)
				}
			}
			if a.Draws() != b.Draws() {
				t.Fatalf("seed %d block %d: draws %d != %d", seed, n, b.Draws(), a.Draws())
			}
			if round%2 == 0 {
				if x, y := a.NormFloat64(), b.NormFloat64(); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d: interleaved normal diverged", seed)
				}
			} else if a.Float64() != b.Float64() {
				t.Fatalf("seed %d: interleaved uniform diverged", seed)
			}
		}
	}
}

// scriptedSource replays a fixed Int63 sequence, so the stock
// rand.Rand.Float64 can be run on values no seed is known to produce.
type scriptedSource struct{ vals []int64 }

func (s *scriptedSource) Int63() int64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *scriptedSource) Uint64() uint64 { return uint64(s.Int63()) }
func (s *scriptedSource) Seed(int64)     {}

// TestFloat64RedrawsOne exercises the f == 1 redraw, which no seed is
// known to reach: Int63 values within 2^9 of 2^63 convert to exactly 1.
// The generator's feedback register is set so its first two steps
// return such values; Float64, FastFloat64 and FillFloat64 must all
// skip them, return what the stock Float64 returns on the same Int63
// sequence, and count every skipped step.
func TestFloat64RedrawsOne(t *testing.T) {
	if unitFloat(math.MaxInt64) != 1 || unitFloat(math.MaxInt64-511) != 1 {
		t.Fatal("Int63 values next to 2^63 do not convert to 1")
	}
	if f := unitFloat(math.MaxInt64 - 512); f >= 1 {
		t.Fatalf("unitFloat(2^63−513) = %v, want < 1", f)
	}
	// A fresh generator's first steps read vec[feed−1] + vec[tap−1]
	// with tap wrapping to the end of the register.
	forge := func() *Rand {
		r := New(5)
		v := &r.cnt.rng.vec
		v[rngLen-rngTap-1], v[rngLen-1] = math.MaxInt64, 0
		v[rngLen-rngTap-2], v[rngLen-2] = math.MaxInt64-100, 0
		return r
	}
	peek := forge().cnt.rng // by value: the script, not the stream under test
	script := make([]int64, 8)
	for i := range script {
		script[i] = peek.Int63()
	}
	if script[0] != math.MaxInt64 || script[1] != math.MaxInt64-100 {
		t.Fatalf("forged register yields %d, %d", script[0], script[1])
	}
	ref := rand.New(&scriptedSource{vals: script})
	want := []float64{ref.Float64(), ref.Float64()}
	if want[0] >= 1 || want[0] != unitFloat(script[2]) {
		t.Fatalf("stock Float64 returned %v, want the third step %v", want[0], unitFloat(script[2]))
	}

	for name, draw := range map[string]func(*Rand) []float64{
		"Float64":     func(r *Rand) []float64 { return []float64{r.Float64(), r.Float64()} },
		"FastFloat64": func(r *Rand) []float64 { return []float64{r.FastFloat64(), r.FastFloat64()} },
		"FillFloat64": func(r *Rand) []float64 { buf := make([]float64, 2); r.FillFloat64(buf); return buf },
	} {
		r := forge()
		got := draw(r)
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
		if r.Draws() != 4 {
			t.Errorf("%s: %d draws counted, want 4 (two redraws)", name, r.Draws())
		}
	}
}

func BenchmarkFillFloat64(b *testing.B) {
	r := New(1)
	buf := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FillFloat64(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/draw")
}
