package comm

import (
	"math/rand"
	"testing"
)

// The Append* APIs exist so the fleet simulator's per-tick loop does not
// allocate. These tests pin that property: once a buffer has grown to
// steady-state capacity, reusing it must cost zero allocations per call.

func assertZeroAlloc(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm-up: grow buffers to steady state
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op at steady state, want 0", name, allocs)
	}
}

func TestModemAppendPathsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range allModems(t) {
		nbits := m.BitsPerSymbol() * 512
		bits := make([]byte, nbits)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		var syms []Symbol
		var back []byte
		assertZeroAlloc(t, m.Name()+"/AppendModulate", func() {
			var err error
			syms, err = m.AppendModulate(syms[:0], bits)
			if err != nil {
				t.Fatal(err)
			}
		})
		assertZeroAlloc(t, m.Name()+"/AppendDemodulate", func() {
			back = m.AppendDemodulate(back[:0], syms)
		})
	}
}

func TestAWGNTransmitInPlaceZeroAlloc(t *testing.T) {
	ch := NewAWGNChannel(10, 9)
	syms := make([]Symbol, 1024)
	assertZeroAlloc(t, "TransmitInPlace", func() {
		ch.TransmitInPlace(syms)
	})
}

func TestPacketizerAppendEncodeZeroAlloc(t *testing.T) {
	p, err := NewPacketizer(10)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]uint16, 128)
	for i := range samples {
		samples[i] = uint16(i * 7 % 1024)
	}
	var frame []byte
	assertZeroAlloc(t, "AppendEncode", func() {
		var err error
		frame, err = p.AppendEncode(frame[:0], samples)
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBitConversionsZeroAlloc(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	for _, m := range []Modulation{OOK{}, NewQAM(4), NewQAM(6)} {
		pm, err := NewPackedModem(m)
		if err != nil {
			t.Fatal(err)
		}
		var syms []Symbol
		var back []byte
		assertZeroAlloc(t, m.Name()+"/packed AppendModulate", func() {
			syms = pm.AppendModulate(syms[:0], data, len(data)*8-3)
		})
		assertZeroAlloc(t, m.Name()+"/packed AppendDemodulate", func() {
			back = pm.AppendDemodulate(back[:0], syms)
		})
	}
	fec, err := NewFEC(4)
	if err != nil {
		t.Fatal(err)
	}
	var coded, dec []byte
	assertZeroAlloc(t, "FEC AppendEncode", func() {
		coded = fec.AppendEncode(coded[:0], data)
	})
	assertZeroAlloc(t, "FEC AppendDecode", func() {
		dec, _, _ = fec.AppendDecode(dec[:0], coded, fec.CodedBits(8*len(data)))
	})
	var packed []byte
	samples := make([]uint16, 128)
	assertZeroAlloc(t, "AppendPackSamples", func() {
		packed = AppendPackSamples(packed[:0], samples, 10)
	})
}

func TestBufferPoolsRecycle(t *testing.T) {
	// A Get after a Put must not allocate a fresh backing array once the
	// pool is primed (run single-threaded this is deterministic enough to
	// assert on; the warm-up covers pool misses).
	assertZeroAlloc(t, "byte pool round-trip", func() {
		buf := GetByteBuf()
		*buf = append(*buf, 0xBC)
		PutByteBuf(buf)
	})
}
