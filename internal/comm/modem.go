package comm

import (
	"fmt"
	"math"
	"math/rand"

	"mindful/internal/detrand"
)

// Symbol is one complex baseband symbol.
type Symbol struct {
	I, Q float64
}

// Modem turns bit streams into baseband symbols and back. All modems are
// normalized to unit average energy per bit (Eb = 1), so an AWGN channel
// with noise density N0 = 1/(Eb/N0) reproduces a chosen operating point.
//
// Bits are represented as byte slices whose elements are 0 or 1.
//
// The Append variants write into a caller-supplied buffer: pass a
// recycled slice re-sliced to [:0] and no per-call allocation occurs
// once the buffer has grown to steady-state capacity. The fleet
// transport runs PackedModem, which takes the same modulations on a
// packed bit stream; this bit-per-byte Modem is its oracle and serves
// BER measurement.
type Modem interface {
	Modulation
	// Modulate maps bits to symbols. len(bits) must be a multiple of
	// BitsPerSymbol.
	Modulate(bits []byte) ([]Symbol, error)
	// AppendModulate appends the symbols for bits to dst and returns the
	// extended slice.
	AppendModulate(dst []Symbol, bits []byte) ([]Symbol, error)
	// Demodulate maps received symbols back to the most likely bits.
	Demodulate(syms []Symbol) []byte
	// AppendDemodulate appends the most likely bits for syms to dst and
	// returns the extended slice.
	AppendDemodulate(dst []byte, syms []Symbol) []byte
}

// NewModem returns a bit-accurate modem for the given modulation. OOK and
// QAM with an even number of bits per symbol (square constellations) up
// to MaxQAMBits plus BPSK are supported.
func NewModem(m Modulation) (Modem, error) {
	switch mod := m.(type) {
	case OOK:
		return ookModem{}, nil
	case QAM:
		if mod.Bits < 1 || mod.Bits > MaxQAMBits {
			return nil, fmt.Errorf("comm: QAM bits/symbol %d outside 1..%d", mod.Bits, MaxQAMBits)
		}
		if mod.Bits == 1 {
			return newBPSK(), nil
		}
		if mod.Bits%2 != 0 {
			return nil, fmt.Errorf("comm: bit-level modem supports square QAM only (even bits/symbol), got %d", mod.Bits)
		}
		return newQAMModem(mod.Bits), nil
	default:
		return nil, fmt.Errorf("comm: no modem for modulation %s", m.Name())
	}
}

type ookModem struct{ OOK }

func (m ookModem) Modulate(bits []byte) ([]Symbol, error) {
	return m.AppendModulate(make([]Symbol, 0, len(bits)), bits)
}

func (ookModem) AppendModulate(dst []Symbol, bits []byte) ([]Symbol, error) {
	if err := checkBits(bits, 1); err != nil {
		return nil, err
	}
	// Amplitudes {0, √2}: average symbol energy (0 + 2)/2 = 1 = Eb.
	amp := math.Sqrt2
	for _, b := range bits {
		if b != 0 {
			dst = append(dst, Symbol{I: amp})
		} else {
			dst = append(dst, Symbol{})
		}
	}
	return dst, nil
}

func (m ookModem) Demodulate(syms []Symbol) []byte {
	return m.AppendDemodulate(make([]byte, 0, len(syms)), syms)
}

func (ookModem) AppendDemodulate(dst []byte, syms []Symbol) []byte {
	thr := math.Sqrt2 / 2
	for _, s := range syms {
		if s.I > thr {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

type bpskModem struct{ QAM }

func newBPSK() bpskModem { return bpskModem{QAM{Bits: 1}} }

func (m bpskModem) Modulate(bits []byte) ([]Symbol, error) {
	return m.AppendModulate(make([]Symbol, 0, len(bits)), bits)
}

func (bpskModem) AppendModulate(dst []Symbol, bits []byte) ([]Symbol, error) {
	if err := checkBits(bits, 1); err != nil {
		return nil, err
	}
	for _, b := range bits {
		if b != 0 {
			dst = append(dst, Symbol{I: 1})
		} else {
			dst = append(dst, Symbol{I: -1})
		}
	}
	return dst, nil
}

func (m bpskModem) Demodulate(syms []Symbol) []byte {
	return m.AppendDemodulate(make([]byte, 0, len(syms)), syms)
}

func (bpskModem) AppendDemodulate(dst []byte, syms []Symbol) []byte {
	for _, s := range syms {
		if s.I > 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// qamModem is a square M-QAM modem with independent Gray-coded PAM on each
// axis, normalized to Eb = 1.
type qamModem struct {
	QAM
	levels    int       // per-axis levels L = 2^(Bits/2)
	scale     float64   // amplitude scale for Eb = 1
	grayToIdx []int     // gray code → level index
	idxToGray []int     // level index → gray code
	amps      []float64 // level index → amplitude
}

func newQAMModem(bits int) *qamModem {
	half := bits / 2
	l := 1 << half
	m := &qamModem{
		QAM:       QAM{Bits: bits},
		levels:    l,
		grayToIdx: make([]int, l),
		idxToGray: make([]int, l),
		amps:      make([]float64, l),
	}
	// Average symbol energy of the unscaled ±1, ±3, … grid is 2(M−1)/3;
	// scale so Es = Bits (i.e. Eb = 1).
	mSize := float64(int(1) << bits)
	m.scale = math.Sqrt(float64(bits) / (2 * (mSize - 1) / 3))
	for i := 0; i < l; i++ {
		g := i ^ (i >> 1)
		m.idxToGray[i] = g
		m.grayToIdx[g] = i
		m.amps[i] = m.scale * float64(2*i-(l-1))
	}
	return m
}

func (m *qamModem) Modulate(bits []byte) ([]Symbol, error) {
	return m.AppendModulate(make([]Symbol, 0, len(bits)/m.Bits), bits)
}

func (m *qamModem) AppendModulate(dst []Symbol, bits []byte) ([]Symbol, error) {
	if err := checkBits(bits, m.Bits); err != nil {
		return nil, err
	}
	half := m.Bits / 2
	nSym := len(bits) / m.Bits
	for s := 0; s < nSym; s++ {
		chunk := bits[s*m.Bits:]
		dst = append(dst, Symbol{
			I: m.amps[m.grayToIdx[bitsToInt(chunk[:half])]],
			Q: m.amps[m.grayToIdx[bitsToInt(chunk[half:m.Bits])]],
		})
	}
	return dst, nil
}

func (m *qamModem) Demodulate(syms []Symbol) []byte {
	return m.AppendDemodulate(make([]byte, 0, len(syms)*m.Bits), syms)
}

func (m *qamModem) AppendDemodulate(dst []byte, syms []Symbol) []byte {
	half := m.Bits / 2
	for _, s := range syms {
		dst = appendIntBits(dst, m.idxToGray[m.nearestLevel(s.I)], half)
		dst = appendIntBits(dst, m.idxToGray[m.nearestLevel(s.Q)], half)
	}
	return dst
}

func (m *qamModem) nearestLevel(x float64) int {
	// Levels are uniformly spaced at 2·scale starting at −(L−1)·scale.
	// Clamping happens on the float side so the function is total and
	// monotone for every input — an int() conversion of an
	// out-of-range float is implementation-defined, and monotonicity
	// is what lets the packed modem precompute decision thresholds
	// (see demodThresholds). Reachable symbol magnitudes sit far
	// inside the representable range, where this is the same
	// round-then-clamp as ever.
	r := math.Round((x/m.scale + float64(m.levels-1)) / 2)
	switch {
	case !(r > 0): // negative, zero, or NaN
		return 0
	case r >= float64(m.levels):
		return m.levels - 1
	}
	return int(r)
}

func checkBits(bits []byte, per int) error {
	if len(bits)%per != 0 {
		return fmt.Errorf("comm: %d bits not a multiple of %d bits/symbol", len(bits), per)
	}
	for i, b := range bits {
		if b > 1 {
			return fmt.Errorf("comm: bit %d has non-binary value %d", i, b)
		}
	}
	return nil
}

func bitsToInt(bits []byte) int {
	v := 0
	for _, b := range bits {
		v = v<<1 | int(b)
	}
	return v
}

func appendIntBits(dst []byte, v, n int) []byte {
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>i)&1)
	}
	return dst
}

// AWGNChannel adds white Gaussian noise to symbols at a configured Eb/N0
// for a modem normalized to Eb = 1.
type AWGNChannel struct {
	rng *detrand.Rand
	// sigma is the per-dimension noise standard deviation √(N0/2).
	sigma float64
}

// NewAWGNChannel returns a channel at the given linear Eb/N0, seeded for
// reproducibility.
func NewAWGNChannel(ebN0 float64, seed int64) *AWGNChannel {
	if ebN0 <= 0 {
		panic("comm: Eb/N0 must be positive")
	}
	n0 := 1 / ebN0 // Eb = 1 by modem normalization
	return &AWGNChannel{
		rng:   detrand.New(seed),
		sigma: math.Sqrt(n0 / 2),
	}
}

// AWGNState is a channel's serializable noise-stream position.
type AWGNState struct {
	RNG detrand.State
}

// Snapshot captures the channel's noise-stream position.
func (c *AWGNChannel) Snapshot() AWGNState { return AWGNState{RNG: c.rng.State()} }

// RestoreAWGNChannel rebuilds a channel mid-stream: same operating point,
// noise sequence fast-forwarded to the recorded position.
func RestoreAWGNChannel(ebN0 float64, st AWGNState) *AWGNChannel {
	c := NewAWGNChannel(ebN0, st.RNG.Seed)
	c.rng = detrand.Restore(st.RNG)
	return c
}

// Transmit returns a noisy copy of the symbols.
func (c *AWGNChannel) Transmit(syms []Symbol) []Symbol {
	out := make([]Symbol, len(syms))
	copy(out, syms)
	c.TransmitInPlace(out)
	return out
}

// awgnBlock is the symbols TransmitInPlace draws noise for in one bulk
// pass, sized so the noise vector lives on the stack.
const awgnBlock = 64

// TransmitInPlace adds noise to the symbols in place — the allocation-free
// variant for pooled pipelines. Noise is drawn in bulk FillNorm passes of
// up to awgnBlock symbols, I then Q per symbol: exactly the values and the
// draw count of successive NormFloat64 calls, so the noise sequence is
// identical to Transmit's for the same channel state.
func (c *AWGNChannel) TransmitInPlace(syms []Symbol) {
	var noise [2 * awgnBlock]float64
	sigma := c.sigma
	for len(syms) > 0 {
		n := min(len(syms), awgnBlock)
		c.rng.FillNorm(noise[:2*n])
		for i := range syms[:n] {
			syms[i].I += noise[2*i] * sigma
			syms[i].Q += noise[2*i+1] * sigma
		}
		syms = syms[n:]
	}
}

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
