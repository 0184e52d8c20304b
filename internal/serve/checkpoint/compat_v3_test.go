package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/fleet"
)

// goldenV3Config is the exact session configuration testdata/v3_golden.ckpt
// was taken under — adaptiveSessionConfig("kalman") spelled out, so a later
// edit of the shared test configs cannot move it: the full stack (faults +
// ARQ + FEC + concealment) with drift, a day-0-calibrated Kalman decoder at
// bin 2, instability tracking and closed-loop recalibration, seed 7,
// snapshotted at tick 18 — between refits, with the supervision rings part
// full — by the version-3 codec. Every v3 section is present in the blob.
func goldenV3Config() SessionConfig {
	faults := fault.DefaultProfile()
	dr := drift.DefaultProfile()
	dr.EpochTicks = 8
	return SessionConfig{
		Channels:         16,
		SampleRateHz:     2000,
		SampleBits:       10,
		QAMBits:          4,
		EbN0dB:           8,
		Seed:             7,
		Ticks:            64,
		ARQMaxRetries:    2,
		ARQSlotTime:      time.Millisecond,
		ARQLatencyBudget: 8 * time.Millisecond,
		FECDepth:         4,
		Concealment:      2,
		Faults:           &faults,
		Decoder:          "kalman",
		DecodeBin:        2,
		Drift:            &dr,
		Calibrate:        true,
		Track:            true,
		Adapt:            true,
		RefitEvery:       4,
		RefitBuffer:      8,
		RefitBlend:       0.3,
		MeterRef:         4,
		MeterWin:         4,
	}
}

// goldenV3Ticks is the snapshot tick; the pinned result is the
// uninterrupted run to twice that.
const goldenV3Ticks = 18

// goldenV3Result is the pinned uninterrupted 36-tick result of the golden
// v3 session — the continuation a correct v3 restore must reproduce
// exactly, drift substrate and adaptation loop included.
var goldenV3Result = fleet.ImplantResult{
	Counters: fleet.Counters{
		Frames: 36, Accepted: 31, Corrupt: 5, LostSeq: 5,
		BitsSent: 30940, BitErrors: 274, LinkDropped: 8,
		Retransmits: 29, Recovered: 15, ARQFailed: 5, RetransmitBits: 13804,
		FECCorrected: 265, Concealed: 5, ConcealedSamples: 80,
		FaultyChannels: 2, DataBits: 9792, DataBitErrors: 13,
		DecodedSteps: 18, DecodeConcealedBins: 5, DecodeMACs: 2736,
		DecodeSqErr: 9.414270033772313, DecodeErrBins: 18, Refits: 4,
		DriftEpochs: 4, DriftTurnovers: 2, DriftUnitsLost: 1,
	},
	Digest:       0x2d48bc49912862fd,
	DecodeDigest: 0x3ac51a6fd521c1dd,
	LastKL:       47.81112679785893,
}

// Values recorded inside the blob at tick 18.
const (
	goldenV3MidDigest       uint64 = 6586230029920286659
	goldenV3MidDecodeDigest uint64 = 8884492606739313367
	goldenV3MidRefits       int64  = 2
	goldenV3MidRecalCount          = 8
	goldenV3MidSinceRefit          = 1
	goldenV3MidDriftEpochs  int64  = 2
)

func readGoldenV3(t *testing.T) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "v3_golden.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenV3Decodes: the committed v3 blob must decode to exactly the
// golden config, with the mid-run digests and the drift and adapt
// sections where the codec put them — the check a walk that reorders
// fields in both directions at once would still pass by round trip alone.
func TestGoldenV3Decodes(t *testing.T) {
	cp, err := Decode(readGoldenV3(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenV3Config(); !reflect.DeepEqual(cp.Config, want) {
		t.Fatalf("v3 config\n%+v\nwant %+v", cp.Config, want)
	}
	st := cp.State
	if st.Tick != goldenV3Ticks {
		t.Fatalf("v3 snapshot tick %d, want %d", st.Tick, goldenV3Ticks)
	}
	if st.Counters.Digest != goldenV3MidDigest {
		t.Fatalf("v3 mid-run digest %d, want %d", st.Counters.Digest, goldenV3MidDigest)
	}
	if st.Decode == nil || st.Decode.Digest != goldenV3MidDecodeDigest {
		t.Fatalf("v3 mid-run decode state %+v, want digest %d", st.Decode, goldenV3MidDecodeDigest)
	}
	if st.Drift == nil || st.Drift.Epochs != goldenV3MidDriftEpochs {
		t.Fatalf("v3 drift state %+v, want %d epochs", st.Drift, goldenV3MidDriftEpochs)
	}
	if st.Adapt == nil || st.Adapt.Recal == nil || st.Adapt.Model == nil {
		t.Fatal("v3 blob lost the adapt state, its rings or its model")
	}
	if rc := st.Adapt.Recal; rc.Refits != goldenV3MidRefits ||
		rc.Count != goldenV3MidRecalCount || rc.SinceRefit != goldenV3MidSinceRefit {
		t.Fatalf("v3 recal state refits %d count %d since %d, want %d %d %d",
			rc.Refits, rc.Count, rc.SinceRefit,
			goldenV3MidRefits, goldenV3MidRecalCount, goldenV3MidSinceRefit)
	}
}

// TestGoldenV3ReEncodesByteForByte: the codec is canonical on the v3
// golden — decoding and re-encoding reproduces the committed bytes.
func TestGoldenV3ReEncodesByteForByte(t *testing.T) {
	blob := readGoldenV3(t)
	cp, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := Encode(cp); !bytes.Equal(again, blob) {
		t.Fatalf("re-encoded v3 golden differs: %d bytes, want %d", len(again), len(blob))
	}
}

// TestGoldenV3RestoresBitIdentically: restoring the committed v3 blob and
// stepping the remaining ticks must reproduce the pinned uninterrupted
// result bit for bit.
func TestGoldenV3RestoresBitIdentically(t *testing.T) {
	_, p, err := Restore(readGoldenV3(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < goldenV3Ticks; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV3Result {
		t.Fatalf("restored v3 continuation\n%+v\nwant %+v", got, goldenV3Result)
	}
}

// TestGoldenV3ConfigStillCurrent: a fresh run under the golden v3 config
// must still hit the pinned result — if this fails, the simulation
// changed behavior and the golden blob (plus these pins) must be
// regenerated deliberately.
func TestGoldenV3ConfigStillCurrent(t *testing.T) {
	p, err := NewPipeline(goldenV3Config(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 2*goldenV3Ticks; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Result(); got != goldenV3Result {
		t.Fatalf("fresh run under golden v3 config\n%+v\nwant %+v", got, goldenV3Result)
	}
}
