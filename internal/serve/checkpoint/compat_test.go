package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mindful/internal/fault"
	"mindful/internal/fleet"
)

// goldenV1Config is the exact session configuration testdata/v1_golden.ckpt
// was taken under: a 16-channel full-stack session (faults + ARQ + FEC +
// concealment), seed 42, snapshotted at tick 12 of 24 by the version-1
// codec before the v2 format existed.
func goldenV1Config() SessionConfig {
	prof := fault.DefaultProfile()
	return SessionConfig{
		Channels:         16,
		SampleRateHz:     2000,
		SampleBits:       10,
		QAMBits:          4,
		EbN0dB:           8,
		Seed:             42,
		Ticks:            24,
		ARQMaxRetries:    2,
		ARQSlotTime:      time.Millisecond,
		ARQLatencyBudget: 8 * time.Millisecond,
		FECDepth:         4,
		Concealment:      2,
		Faults:           &prof,
	}
}

// goldenV1Result is the pinned uninterrupted 24-tick result of the golden
// session — the continuation a correct v1 restore must reproduce exactly.
var goldenV1Result = fleet.ImplantResult{
	Counters: fleet.Counters{
		Frames: 20, Accepted: 13, Corrupt: 7, LostSeq: 7,
		BitsSent: 20468, BitErrors: 187, Blanked: 4, LinkDropped: 10,
		Retransmits: 23, Recovered: 7, ARQFailed: 7, RetransmitBits: 10948,
		FECCorrected: 184, Concealed: 7, ConcealedSamples: 112,
		FaultyChannels: 1, DataBits: 5440, DataBitErrors: 13,
	},
	Digest: 10134489101573515607,
}

// goldenV1MidDigest is the digest recorded inside the blob at tick 12.
const goldenV1MidDigest uint64 = 13008298761598898992

func readGolden(t *testing.T) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "v1_golden.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenV1Decodes: the committed v1 blob must decode under the v2
// codec with every field intact and no phantom decoder state.
func TestGoldenV1Decodes(t *testing.T) {
	cp, err := Decode(readGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenV1Config()
	if cp.Config.Decoder != "" || cp.Config.DecodeBin != 0 {
		t.Fatalf("v1 blob decoded with decoder config %q/%d", cp.Config.Decoder, cp.Config.DecodeBin)
	}
	if cp.State.Decode != nil {
		t.Fatal("v1 blob decoded with decoder state")
	}
	if cp.Config.Seed != want.Seed || cp.Config.Channels != want.Channels ||
		cp.Config.FECDepth != want.FECDepth || cp.Config.Concealment != want.Concealment ||
		(cp.Config.Faults == nil) != (want.Faults == nil) {
		t.Fatalf("v1 config mismatch: %+v want %+v", cp.Config, want)
	}
	if cp.State.Tick != 12 {
		t.Fatalf("v1 snapshot tick %d, want 12", cp.State.Tick)
	}
	if cp.State.Counters.Digest != goldenV1MidDigest {
		t.Fatalf("v1 mid-run digest %d, want %d", cp.State.Counters.Digest, goldenV1MidDigest)
	}
}

// TestGoldenV1RestoresBitIdentically: restoring the committed v1 blob and
// stepping the remaining 12 ticks must reproduce the pinned uninterrupted
// result bit for bit — backward compatibility as a digest equality, not a
// "parses without error" claim.
func TestGoldenV1RestoresBitIdentically(t *testing.T) {
	_, p, err := Restore(readGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 12; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV1Result {
		t.Fatalf("restored v1 continuation\n%+v\nwant %+v", got, goldenV1Result)
	}
}

// TestGoldenV1ConfigStillCurrent: a fresh run under the golden config
// must still hit the pinned result — if this fails, the simulation
// changed behavior and the golden blob (plus these pins) must be
// regenerated deliberately.
func TestGoldenV1ConfigStillCurrent(t *testing.T) {
	p, err := NewPipeline(goldenV1Config(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 24; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV1Result {
		t.Fatalf("fresh run under golden config\n%+v\nwant %+v", got, goldenV1Result)
	}
}

// TestGoldenV1UpgradesToV2: re-encoding the decoded v1 checkpoint writes
// a v2 blob that round-trips and restores to the same continuation.
func TestGoldenV1UpgradesToV2(t *testing.T) {
	cp, err := Decode(readGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	v2 := Encode(cp)
	if !bytes.Equal(v2[:4], Magic[:]) || v2[4] != 0 || v2[5] != byte(Version) {
		t.Fatalf("re-encoded header % x not v%d", v2[:6], Version)
	}
	_, p, err := Restore(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 12; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV1Result {
		t.Fatalf("v1→v2 upgraded continuation\n%+v\nwant %+v", got, goldenV1Result)
	}
}

// TestUnknownFutureVersionRejected: a version this build does not know
// must fail with ErrBadVersion and a message naming the supported range.
func TestUnknownFutureVersionRejected(t *testing.T) {
	blob := append([]byte(nil), readGolden(t)...)
	for _, v := range []byte{4, 0xFF} {
		blob[4], blob[5] = 0, v
		_, err := Decode(blob)
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: got %v, want ErrBadVersion", v, err)
		}
	}
	blob[4], blob[5] = 0, 0
	if _, err := Decode(blob); !errors.Is(err, ErrBadVersion) {
		t.Fatal("version 0 accepted")
	}
}
