package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MeasureBER runs nbits random bits through the modem and an AWGN channel
// at the given Eb/N0 and returns the measured bit error rate.
func MeasureBER(m Modem, ebN0 float64, nbits int, seed int64) (float64, error) {
	per := m.BitsPerSymbol()
	nbits -= nbits % per
	if nbits <= 0 {
		return 0, fmt.Errorf("comm: need at least %d bits", per)
	}
	rng := rand.New(rand.NewSource(seed))
	bits := make([]byte, nbits)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	syms, err := m.Modulate(bits)
	if err != nil {
		return 0, err
	}
	ch := NewAWGNChannel(ebN0, seed+1)
	got := m.Demodulate(ch.Transmit(syms))
	errs := 0
	for i := range bits {
		if bits[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(nbits), nil
}

func allModems(t *testing.T) []Modem {
	t.Helper()
	var out []Modem
	for _, m := range []Modulation{OOK{}, NewQAM(1), NewQAM(2), NewQAM(4), NewQAM(6)} {
		modem, err := NewModem(m)
		if err != nil {
			t.Fatalf("NewModem(%s): %v", m.Name(), err)
		}
		out = append(out, modem)
	}
	return out
}

func TestModemNoiselessRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range allModems(t) {
		n := m.BitsPerSymbol() * 256
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		syms, err := m.Modulate(bits)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(syms) != n/m.BitsPerSymbol() {
			t.Fatalf("%s: %d symbols for %d bits", m.Name(), len(syms), n)
		}
		got := m.Demodulate(syms)
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("%s: noiseless bit %d flipped", m.Name(), i)
			}
		}
	}
}

func TestModemUnitEnergyNormalization(t *testing.T) {
	// Every modem must average Eb = 1 over random data, so the AWGN
	// operating point is meaningful.
	rng := rand.New(rand.NewSource(11))
	for _, m := range allModems(t) {
		n := m.BitsPerSymbol() * 4096
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		syms, err := m.Modulate(bits)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		for _, s := range syms {
			e += s.I*s.I + s.Q*s.Q
		}
		ebMeasured := e / float64(n)
		if math.Abs(ebMeasured-1) > 0.06 {
			t.Errorf("%s: measured Eb = %v, want ≈1", m.Name(), ebMeasured)
		}
	}
}

func TestMeasuredBERMatchesAnalytic(t *testing.T) {
	// The empirical modem must reproduce the analytic BER curves that the
	// whole Section 5 power analysis rests on. Operating points chosen so
	// expected error counts are large enough for a tight check.
	cases := []struct {
		mod  Modulation
		dB   float64
		nbit int
	}{
		{OOK{}, 7, 200000},
		{NewQAM(1), 4, 200000},
		{NewQAM(2), 4, 200000},
		{NewQAM(4), 8, 200000},
		{NewQAM(6), 12, 300000},
	}
	for _, c := range cases {
		modem, err := NewModem(c.mod)
		if err != nil {
			t.Fatal(err)
		}
		ebn0 := math.Pow(10, c.dB/10)
		want := c.mod.BER(ebn0)
		got, err := MeasureBER(modem, ebn0, c.nbit, 42)
		if err != nil {
			t.Fatal(err)
		}
		if want < 1e-4 {
			t.Fatalf("%s test point too deep for %d bits", c.mod.Name(), c.nbit)
		}
		rel := math.Abs(got-want) / want
		if rel > 0.25 {
			t.Errorf("%s @%v dB: measured %v vs analytic %v (%.0f%% off)",
				c.mod.Name(), c.dB, got, want, rel*100)
		}
	}
}

func TestBERMatchesAnalyticAllOrders(t *testing.T) {
	// Property over every constellation the bit-level modem supports —
	// OOK, BPSK and all square QAM orders through 256-QAM: at the Eb/N0
	// where the analytic curve predicts BER = 1e-2, the measured rate must
	// sit inside a tolerance band derived from the trial count.
	//
	// With p = 1e-2 over n trials the binomial standard deviation of the
	// measured rate is σ = √(p(1−p)/n); the band is ±4σ for sampling
	// noise plus a fixed model term, because the analytic M-QAM expression
	// is a nearest-neighbour Gray-coding approximation whose error is a
	// few percent at BER this high.
	const (
		targetBER  = 1e-2
		nbits      = 240000
		modelSlack = 0.15
	)
	mods := []Modulation{OOK{}, NewQAM(1), NewQAM(2), NewQAM(4), NewQAM(6), NewQAM(8)}
	sigma := math.Sqrt(targetBER * (1 - targetBER) / float64(nbits))
	tol := 4*sigma/targetBER + modelSlack
	for _, mod := range mods {
		modem, err := NewModem(mod)
		if err != nil {
			t.Fatalf("NewModem(%s): %v", mod.Name(), err)
		}
		ebn0 := mod.RequiredEbN0(targetBER)
		want := mod.BER(ebn0)
		if rel := math.Abs(want-targetBER) / targetBER; rel > 1e-6 {
			t.Fatalf("%s: RequiredEbN0 and BER disagree: %v vs %v", mod.Name(), want, targetBER)
		}
		got, err := MeasureBER(modem, ebn0, nbits, 17)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Errorf("%s @Eb/N0=%.2f: measured BER %v vs analytic %v (%.1f%% off, tolerance %.1f%%)",
				mod.Name(), ebn0, got, want, rel*100, tol*100)
		}
	}
}

func TestMeasuredBERNeverBeatsShannonProperty(t *testing.T) {
	// Property: at any Eb/N0 below the scheme's requirement for 1e-3, the
	// measured BER stays above 1e-3 (no free lunch from the simulator).
	f := func(seed int64) bool {
		modem, err := NewModem(NewQAM(4))
		if err != nil {
			return false
		}
		req := NewQAM(4).RequiredEbN0(1e-3)
		got, err := MeasureBER(modem, req/4, 20000, seed)
		return err == nil && got > 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestNewModemRejectsOddQAM(t *testing.T) {
	if _, err := NewModem(NewQAM(3)); err == nil {
		t.Errorf("8-QAM modem should be rejected")
	}
	if _, err := NewModem(NewQAM(5)); err == nil {
		t.Errorf("32-QAM modem should be rejected")
	}
}

func TestModulateValidation(t *testing.T) {
	m, err := NewModem(NewQAM(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Modulate(make([]byte, 5)); err == nil {
		t.Errorf("non-multiple bit count should fail")
	}
	if _, err := m.Modulate([]byte{0, 1, 2, 1}); err == nil {
		t.Errorf("non-binary bit should fail")
	}
}

func TestAWGNChannelProperties(t *testing.T) {
	ch := NewAWGNChannel(10, 3)
	in := make([]Symbol, 10000)
	out := ch.Transmit(in)
	var mean, power float64
	for _, s := range out {
		mean += s.I + s.Q
		power += s.I*s.I + s.Q*s.Q
	}
	mean /= float64(2 * len(out))
	power /= float64(len(out))
	if math.Abs(mean) > 0.01 {
		t.Errorf("noise mean = %v, want ≈0", mean)
	}
	// Per-symbol noise power = N0 = 1/ebn0 = 0.1 (both dimensions).
	if math.Abs(power-0.1) > 0.01 {
		t.Errorf("noise power = %v, want ≈0.1", power)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("non-positive Eb/N0 should panic")
			}
		}()
		NewAWGNChannel(0, 1)
	}()
}

func TestMeasureBERValidation(t *testing.T) {
	m, err := NewModem(NewQAM(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureBER(m, 10, 3, 1); err == nil {
		t.Errorf("too few bits should fail")
	}
}
