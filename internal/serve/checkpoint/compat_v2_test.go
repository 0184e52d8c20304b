package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mindful/internal/fault"
	"mindful/internal/fleet"
)

// goldenV2Config is the exact session configuration testdata/v2_golden.ckpt
// was taken under: a 16-channel full-stack session (faults + ARQ + FEC +
// concealment) with an in-loop Kalman decoder at bin 2, seed 43,
// snapshotted at tick 12 of 24 by the version-2 codec before the v3
// format existed.
func goldenV2Config() SessionConfig {
	prof := fault.DefaultProfile()
	return SessionConfig{
		Channels:         16,
		SampleRateHz:     2000,
		SampleBits:       10,
		QAMBits:          4,
		EbN0dB:           8,
		Seed:             43,
		Ticks:            24,
		ARQMaxRetries:    2,
		ARQSlotTime:      time.Millisecond,
		ARQLatencyBudget: 8 * time.Millisecond,
		FECDepth:         4,
		Concealment:      2,
		Faults:           &prof,
		Decoder:          "kalman",
		DecodeBin:        2,
	}
}

// goldenV2Result is the pinned uninterrupted 24-tick result of the golden
// v2 session — the continuation a correct v2 restore must reproduce
// exactly, decoder temporal state included.
var goldenV2Result = fleet.ImplantResult{
	Counters: fleet.Counters{
		Frames: 24, Accepted: 19, Corrupt: 5, LostSeq: 2,
		BitsSent: 23324, BitErrors: 216, LinkDropped: 11,
		Retransmits: 25, Recovered: 12, ARQFailed: 5, RetransmitBits: 11900,
		FECCorrected: 209, Concealed: 2, ConcealedSamples: 32,
		FaultyChannels: 3, DataBits: 6528, DataBitErrors: 9,
		DecodedSteps: 10, DecodeConcealedBins: 2, DecodeMACs: 1520,
	},
	Digest:       2744184159313191520,
	DecodeDigest: 12146187164535703923,
}

// Digests recorded inside the blob at tick 12.
const (
	goldenV2MidDigest       uint64 = 18008250860309782093
	goldenV2MidDecodeDigest uint64 = 2858542770851904876
)

func readGoldenV2(t *testing.T) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "v2_golden.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenV2Decodes: the committed v2 blob must decode with every field
// intact — decoder selection and decoder state included — freezing the
// v2 byte layout before any later version appends to it.
func TestGoldenV2Decodes(t *testing.T) {
	cp, err := Decode(readGoldenV2(t))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenV2Config()
	if cp.Config.Decoder != want.Decoder || cp.Config.DecodeBin != want.DecodeBin {
		t.Fatalf("v2 blob decoder config %q/%d, want %q/%d",
			cp.Config.Decoder, cp.Config.DecodeBin, want.Decoder, want.DecodeBin)
	}
	if cp.Config.Seed != want.Seed || cp.Config.Channels != want.Channels ||
		cp.Config.FECDepth != want.FECDepth || cp.Config.Concealment != want.Concealment ||
		(cp.Config.Faults == nil) != (want.Faults == nil) {
		t.Fatalf("v2 config mismatch: %+v want %+v", cp.Config, want)
	}
	if cp.State.Tick != 12 {
		t.Fatalf("v2 snapshot tick %d, want 12", cp.State.Tick)
	}
	if cp.State.Counters.Digest != goldenV2MidDigest {
		t.Fatalf("v2 mid-run digest %d, want %d", cp.State.Counters.Digest, goldenV2MidDigest)
	}
	if cp.State.Decode == nil {
		t.Fatal("v2 blob decoded without decoder state")
	}
	if cp.State.Decode.Digest != goldenV2MidDecodeDigest {
		t.Fatalf("v2 mid-run decode digest %d, want %d",
			cp.State.Decode.Digest, goldenV2MidDecodeDigest)
	}
}

// TestGoldenV2RestoresBitIdentically: restoring the committed v2 blob and
// stepping the remaining 12 ticks must reproduce the pinned uninterrupted
// result bit for bit, decode digest included.
func TestGoldenV2RestoresBitIdentically(t *testing.T) {
	_, p, err := Restore(readGoldenV2(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 12; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV2Result {
		t.Fatalf("restored v2 continuation\n%+v\nwant %+v", got, goldenV2Result)
	}
}

// TestGoldenV2ConfigStillCurrent: a fresh run under the golden v2 config
// must still hit the pinned result — if this fails, the simulation or the
// decode stage changed behavior and the golden blob (plus these pins)
// must be regenerated deliberately.
func TestGoldenV2ConfigStillCurrent(t *testing.T) {
	p, err := NewPipeline(goldenV2Config(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 24; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV2Result {
		t.Fatalf("fresh run under golden v2 config\n%+v\nwant %+v", got, goldenV2Result)
	}
}
