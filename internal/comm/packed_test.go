package comm

import (
	"math"
	mathbits "math/bits"
	"math/rand"
	"testing"
	"time"
)

// levelByThreshold is the decision rule AppendDemodulateBytes uses:
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

// TestDemodThresholdsExact proves the threshold decision rule equals
// nearestLevel everywhere it matters: exactly at every threshold, one
// ulp on either side of it, at extreme magnitudes, and across a dense
// random sweep of the amplitude range.
func TestDemodThresholdsExact(t *testing.T) {
	for _, bits := range []int{2, 4, 8} {
		pm, ok := NewPackedModem(NewQAM(bits))
		if !ok {
			t.Fatalf("QAM%d: expected packed modem", 1<<bits)
		}
		qm := pm.qm
		if len(pm.thr) != qm.levels-1 {
			t.Fatalf("QAM%d: %d thresholds for %d levels", 1<<bits, len(pm.thr), qm.levels)
		}
		check := func(x float64) {
			t.Helper()
			if got, want := levelByThreshold(pm.thr, x), qm.nearestLevel(x); got != want {
				t.Fatalf("QAM%d: x=%v threshold rule %d, nearestLevel %d", 1<<bits, x, got, want)
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
		rng := rand.New(rand.NewSource(int64(bits)))
		span := 4 * math.Abs(qm.amps[len(qm.amps)-1])
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
	for _, bits := range []int{2, 4, 8} {
		mod := NewQAM(bits)
		pm, ok := NewPackedModem(mod)
		if !ok {
			t.Fatalf("QAM%d: expected packed modem", 1<<bits)
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
		// Pad to a whole number of bytes.
		for len(syms)%pm.SymbolsPerByte() != 0 {
			syms = append(syms, Symbol{})
		}
		refBytes := AppendBitsAsBytes(nil, bitModem.AppendDemodulate(nil, syms))
		gotBytes := pm.AppendDemodulateBytes(nil, syms)
		if len(refBytes) != len(gotBytes) {
			t.Fatalf("QAM%d: %d bytes vs %d", 1<<bits, len(gotBytes), len(refBytes))
		}
		for i := range refBytes {
			if refBytes[i] != gotBytes[i] {
				t.Fatalf("QAM%d: byte %d: %#x vs %#x", 1<<bits, i, gotBytes[i], refBytes[i])
			}
		}
	}
}

// TestPackedModemSpeedupFloor pins the kernel that carries most of the
// fleet's single-core throughput: one 32-channel, 10-bit frame through
// modulate → AWGN → demodulate → bit-error count, packed 16-QAM against
// the general Modem path the transport takes for FEC, ARQ and
// non-packable modulations. Both stay production paths, so the floor
// guards the packed one against silently losing its edge. Best of many
// short interleaved rounds keeps scheduler noise out: under parallel
// load each path likely gets at least one uncontended round. The
// recorded ratio is ~2.5–3×, the enforced floor 2×. Skipped under the
// race detector, whose instrumentation distorts exactly what is
// measured.
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
	pm, _ := NewPackedModem(mod)
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
	general := func() {
		bits = AppendBytesAsBits(bits[:0], frame)
		syms, _ = m.AppendModulate(syms[:0], bits)
		ch.TransmitInPlace(syms)
		rxBits = m.AppendDemodulate(rxBits[:0], syms)
		for i := range bits {
			if bits[i] != rxBits[i] {
				errs++
			}
		}
		rxFrame = AppendBitsAsBytes(rxFrame[:0], rxBits)
	}
	packed := func() {
		syms = pm.AppendModulateBytes(syms[:0], frame)
		ch.TransmitInPlace(syms)
		rxFrame = pm.AppendDemodulateBytes(rxFrame[:0], syms)
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
	general()
	packed()
	g, pk := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 60; round++ {
		g = min(g, timeRound(general))
		pk = min(pk, timeRound(packed))
	}
	ratio := float64(g) / float64(pk)
	t.Logf("general %v/frame, packed %v/frame: %.2fx", g, pk, ratio)
	if ratio < 2 {
		t.Errorf("packed 16-QAM path %.2fx faster than the general modem, want >= 2x", ratio)
	}
}
