package comm

import (
	"bytes"
	"math"
	mathbits "math/bits"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// levelByThreshold is the decision rule AppendDemodulate uses:
// the level index is the number of thresholds at or below x.
func levelByThreshold(thr []float64, x float64) int {
	idx := 0
	for _, t := range thr {
		if x >= t {
			idx++
		}
	}
	return idx
}

// axisDecision returns the bit-level modem's per-axis decision for m —
// the oracle demodThresholds searches — and a span that covers its
// constellation amplitudes with room to spare.
func axisDecision(t *testing.T, m Modulation) (func(float64) int, float64) {
	t.Helper()
	bm, err := NewModem(m)
	if err != nil {
		t.Fatal(err)
	}
	if qm, ok := bm.(*qamModem); ok {
		return qm.nearestLevel, 4 * math.Abs(qm.amps[len(qm.amps)-1])
	}
	return func(x float64) int { return int(bm.Demodulate([]Symbol{{I: x}})[0]) }, 4 * math.Sqrt2
}

// TestDemodThresholdsExact proves the threshold decision rule equals
// the bit-level decision everywhere it matters, for every modulation:
// exactly at every threshold, one ulp on either side of it, at extreme
// magnitudes, and across a dense random sweep of the amplitude range.
func TestDemodThresholdsExact(t *testing.T) {
	for _, mod := range packedModulations() {
		pm, err := NewPackedModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		decide, span := axisDecision(t, mod)
		if len(pm.thr) != len(pm.gray)-1 {
			t.Fatalf("%s: %d thresholds for %d levels", mod.Name(), len(pm.thr), len(pm.gray))
		}
		check := func(x float64) {
			t.Helper()
			if got, want := levelByThreshold(pm.thr, x), decide(x); got != want {
				t.Fatalf("%s: x=%v threshold rule %d, bit-level decision %d", mod.Name(), x, got, want)
			}
		}
		for _, th := range pm.thr {
			check(th)
			check(math.Nextafter(th, math.Inf(-1)))
			check(math.Nextafter(th, math.Inf(1)))
		}
		for _, x := range []float64{0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, -1e-300} {
			check(x)
		}
		rng := rand.New(rand.NewSource(int64(pm.BitsPerSymbol())))
		for i := 0; i < 200_000; i++ {
			check((rng.Float64()*2 - 1) * span)
		}
	}
}

// TestDemodBoundarySymbols drives the production packed demodulator on
// symbols placed exactly at, and one ulp either side of, every decision
// threshold — the inputs where a branchless reformulation could slip —
// and pins its bytes against the bit-level scalar path.
func TestDemodBoundarySymbols(t *testing.T) {
	for _, mod := range packedModulations() {
		pm, err := NewPackedModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		bitModem, err := NewModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		var probes []float64
		for _, th := range pm.thr {
			probes = append(probes, th,
				math.Nextafter(th, math.Inf(-1)),
				math.Nextafter(th, math.Inf(1)))
		}
		probes = append(probes, 0, math.Copysign(0, -1), 1e300, -1e300)
		var syms []Symbol
		for _, i := range probes {
			for _, q := range probes {
				syms = append(syms, Symbol{I: i, Q: q})
			}
		}
		refBytes := refPackBits(bitModem.AppendDemodulate(nil, syms))
		gotBytes := pm.AppendDemodulate(nil, syms)
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatalf("%s: boundary decisions differ\n got %x\nwant %x", mod.Name(), gotBytes, refBytes)
		}
	}
}

// TestPackedModemShared: concurrent first calls for one modulation all
// get the same immutable instance (run under -race by `make race`).
func TestPackedModemShared(t *testing.T) {
	for _, mod := range packedModulations() {
		var wg sync.WaitGroup
		got := make([]*PackedModem, 4)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pm, err := NewPackedModem(mod)
				if err != nil {
					t.Error(err)
				}
				got[i] = pm
			}(i)
		}
		wg.Wait()
		for _, pm := range got[1:] {
			if pm != got[0] {
				t.Fatalf("%s: NewPackedModem returned distinct instances", mod.Name())
			}
		}
	}
}

// TestPackedModemSpeedupFloor pins the kernel that carries most of the
// fleet's single-core throughput: one 32-channel, 10-bit frame through
// modulate → AWGN → demodulate → bit-error count, the production packed
// 16-QAM path against its bit-per-byte oracle (the bit-level Modem with
// the reference stream conversions, the path the transport ran before
// it was packed). The floor guards the production path against
// silently losing its edge. Best of many short interleaved rounds keeps
// scheduler noise out: under parallel load each path likely gets at
// least one uncontended round. The recorded ratio is ~2.5–3×, the
// enforced floor 2×. Skipped under the race detector, whose
// instrumentation distorts exactly what is measured.
func TestPackedModemSpeedupFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("timing floor not asserted under the race detector")
	}
	p, _ := NewPacketizer(10)
	frame, err := p.AppendEncode(nil, benchSamples(32, 10))
	if err != nil {
		t.Fatal(err)
	}
	mod := NewQAM(4)
	pm, err := NewPackedModem(mod)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModem(mod)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewAWGNChannel(15.8, 1)
	var (
		bits, rxBits, rxFrame []byte
		syms                  []Symbol
		errs                  int
	)
	oracle := func() {
		bits = refAppendBytesAsBits(bits[:0], frame)
		syms, _ = m.AppendModulate(syms[:0], bits)
		ch.TransmitInPlace(syms)
		rxBits = m.AppendDemodulate(rxBits[:0], syms)
		for i := range bits {
			if bits[i] != rxBits[i] {
				errs++
			}
		}
		rxFrame = refAppendBitsAsBytes(rxFrame[:0], rxBits)
	}
	packed := func() {
		syms = pm.AppendModulate(syms[:0], frame, len(frame)*8)
		ch.TransmitInPlace(syms)
		rxFrame = pm.AppendDemodulate(rxFrame[:0], syms)
		for i := range frame {
			errs += mathbits.OnesCount8(frame[i] ^ rxFrame[i])
		}
	}
	// Rounds alternate between the paths so a machine-speed swing hits
	// both; each path keeps its fastest round. A round is 300 frames,
	// a couple of milliseconds, so a burst of contention spoils few of
	// the 60.
	timeRound := func(fn func()) time.Duration {
		const iters = 300
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		return time.Since(start) / iters
	}
	oracle()
	packed()
	g, pk := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 60; round++ {
		g = min(g, timeRound(oracle))
		pk = min(pk, timeRound(packed))
	}
	ratio := float64(g) / float64(pk)
	t.Logf("oracle %v/frame, packed %v/frame: %.2fx", g, pk, ratio)
	if ratio < 2 {
		t.Errorf("packed 16-QAM path %.2fx faster than its bit-level oracle, want >= 2x", ratio)
	}
}
