package comm

import (
	"bytes"
	"math/rand"
	"testing"
)

// flipBit inverts bit pos (MSB-first) of a packed stream.
func flipBit(buf []byte, pos int) { buf[pos/8] ^= 0x80 >> (pos % 8) }

func TestFECCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []int{1, 2, 4, 8, 16} {
		f, err := NewFEC(depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 3, 4, 5, 8, 100, 321} {
			data := make([]byte, n)
			rng.Read(data)
			coded := f.AppendEncode(nil, data)
			nbits := f.CodedBits(8 * n)
			if want := (nbits + 7) / 8; len(coded) != want {
				t.Fatalf("depth %d: %d data bytes coded to %d bytes, want %d", depth, n, len(coded), want)
			}
			if pad := len(coded)*8 - nbits; pad > 0 && coded[len(coded)-1]&(1<<pad-1) != 0 {
				t.Fatalf("depth %d: nonzero fill past the coded bits", depth)
			}
			back, fixed, err := f.AppendDecode(nil, coded, nbits)
			if err != nil {
				t.Fatalf("depth %d: decode: %v", depth, err)
			}
			if fixed != 0 {
				t.Fatalf("depth %d: clean stream reported %d corrections", depth, fixed)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("depth %d: %d-byte round trip mismatch", depth, n)
			}
		}
	}
}

// TestFECSingleErrorPerCodeword: every single-bit error in every codeword
// position must be corrected, for every depth.
func TestFECSingleErrorPerCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, depth := range []int{1, 3, 8} {
		f, err := NewFEC(depth)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 5) // 10 codewords
		rng.Read(data)
		coded := f.AppendEncode(nil, data)
		nbits := f.CodedBits(8 * len(data))
		for pos := 0; pos < nbits; pos++ {
			corrupt := append([]byte(nil), coded...)
			flipBit(corrupt, pos)
			back, fixed, err := f.AppendDecode(nil, corrupt, nbits)
			if err != nil {
				t.Fatal(err)
			}
			if fixed != 1 {
				t.Fatalf("depth %d, flip at %d: %d corrections, want 1", depth, pos, fixed)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("depth %d: flip at %d not corrected", depth, pos)
			}
		}
	}
}

// TestFECBurstCorrection is the interleaver property: any contiguous
// burst of up to Depth bit errors inside one interleave block lands at
// most one error per codeword and is fully corrected.
func TestFECBurstCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, depth := range []int{2, 4, 8, 16} {
		f, err := NewFEC(depth)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly one full interleave block: depth codewords, two per byte.
		data := make([]byte, depth/2)
		rng.Read(data)
		coded := f.AppendEncode(nil, data)
		nbits := f.CodedBits(8 * len(data))
		for burst := 1; burst <= depth; burst++ {
			for start := 0; start+burst <= nbits; start++ {
				corrupt := append([]byte(nil), coded...)
				for i := 0; i < burst; i++ {
					flipBit(corrupt, start+i)
				}
				back, fixed, err := f.AppendDecode(nil, corrupt, nbits)
				if err != nil {
					t.Fatal(err)
				}
				if fixed != burst {
					t.Fatalf("depth %d: burst %d at %d: %d corrections, want %d",
						depth, burst, start, fixed, burst)
				}
				if !bytes.Equal(back, data) {
					t.Fatalf("depth %d: burst %d at %d not corrected", depth, burst, start)
				}
			}
		}
		// A burst of depth+1 must defeat some placement — the guarantee
		// is tight, not vacuous.
		defeated := false
		for start := 0; start+depth+1 <= nbits && !defeated; start++ {
			corrupt := append([]byte(nil), coded...)
			for i := 0; i <= depth; i++ {
				flipBit(corrupt, start+i)
			}
			back, _, err := f.AppendDecode(nil, corrupt, nbits)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				defeated = true
			}
		}
		if !defeated {
			t.Errorf("depth %d: burst of depth+1 never defeated the code", depth)
		}
	}
}

func TestFECRejectsBadLength(t *testing.T) {
	f, err := NewFEC(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.AppendDecode(nil, make([]byte, 2), 13); err == nil {
		t.Fatal("decode accepted a length not divisible by 7")
	}
	if _, _, err := f.AppendDecode(nil, make([]byte, 1), 14); err == nil {
		t.Fatal("decode accepted a stream shorter than its bit count")
	}
	if _, _, err := f.AppendDecode(nil, nil, -7); err == nil {
		t.Fatal("decode accepted a negative bit count")
	}
	if _, err := NewFEC(0); err == nil {
		t.Fatal("NewFEC accepted depth 0")
	}
}

func TestFECOverheadAndEnergy(t *testing.T) {
	f, err := NewFEC(4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Overhead() != 1.75 || f.Rate() != 4.0/7.0 {
		t.Fatalf("overhead %g rate %g", f.Overhead(), f.Rate())
	}
	lb := NominalBudget(0.15)
	plain, err := lb.TxEnergyPerBit(NewQAM(4), NominalBER)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := lb.TxEnergyPerInfoBit(NewQAM(4), NominalBER, f.Rate())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coded.Joules()/plain.Joules(), f.Overhead(); got < want*0.999 || got > want*1.001 {
		t.Errorf("coded energy ratio %g, want %g", got, want)
	}
	if _, err := lb.TxEnergyPerInfoBit(NewQAM(4), NominalBER, 0); err == nil {
		t.Error("code rate 0 accepted")
	}
	if _, err := lb.TxEnergyPerInfoBit(NewQAM(4), NominalBER, 1.5); err == nil {
		t.Error("code rate > 1 accepted")
	}
}

func TestFECCorrectedCounter(t *testing.T) {
	f, err := NewFEC(2)
	if err != nil {
		t.Fatal(err)
	}
	coded := f.AppendEncode(nil, []byte{0xB2})
	flipBit(coded, 3)
	if _, _, err := f.AppendDecode(nil, coded, f.CodedBits(8)); err != nil {
		t.Fatal(err)
	}
	if f.Corrected() != 1 {
		t.Errorf("Corrected() = %d, want 1", f.Corrected())
	}
}

// TestTranspose8 checks the word transpose against the cell-by-cell
// definition: bit (r, c) — byte r from the top, bit 7−c of it — moves
// to (c, r).
func TestTranspose8(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cell := func(x uint64, r, c int) uint64 { return x >> (63 - 8*r - c) & 1 }
	for iter := 0; iter < 1000; iter++ {
		x := rng.Uint64()
		if iter < 64 {
			x = 1 << iter // every single cell
		}
		got := transpose8(x)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				if cell(got, c, r) != cell(x, r, c) {
					t.Fatalf("transpose8(%#x) = %#x: cell (%d,%d) not moved to (%d,%d)", x, got, r, c, c, r)
				}
			}
		}
	}
}

// TestTileRows checks the decoder's column spread for every tile width
// against its definition: column c of an n-wide tile (bits 7n−n−c·n up
// to 7n−1−c·n) lands top-aligned in byte c from the top, and nothing
// else is set.
func TestTileRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= fecTile; n++ {
		for iter := 0; iter < 200; iter++ {
			x := rng.Uint64() & (1<<(fecCodeBits*n) - 1)
			var want uint64
			for c := 0; c < fecCodeBits; c++ {
				col := x >> (n * (fecCodeBits - 1 - c)) & (1<<n - 1)
				want |= col << (64 - 8*c - n)
			}
			if got := tileRows(x, n); got != want {
				t.Fatalf("n=%d: tileRows(%#x) = %#x, want %#x", n, x, got, want)
			}
		}
	}
}
