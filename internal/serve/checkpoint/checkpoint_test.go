package checkpoint

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"mindful/internal/fault"
)

// fullConfig exercises every optional state branch: faults, ARQ, FEC and
// concealment all on.
func fullConfig() SessionConfig {
	prof := fault.DefaultProfile()
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
		Faults:           &prof,
	}
}

func cleanConfig() SessionConfig {
	return SessionConfig{
		Channels:     8,
		SampleRateHz: 1000,
		SampleBits:   8,
		QAMBits:      0, // OOK
		EbN0dB:       12,
		Seed:         3,
		Ticks:        32,
	}
}

// snapshotAfter builds a pipeline for cfg, steps it n ticks and encodes
// the checkpoint.
func snapshotAfter(t *testing.T, cfg SessionConfig, n int) []byte {
	t.Helper()
	p, err := NewPipeline(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < n; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := Snapshot(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRoundTrip: Encode → Decode must reproduce the checkpoint exactly,
// and re-encoding the decode must give the same bytes (canonical form).
func TestRoundTrip(t *testing.T) {
	for name, cfg := range map[string]SessionConfig{"clean": cleanConfig(), "full": fullConfig()} {
		t.Run(name, func(t *testing.T) {
			blob := snapshotAfter(t, cfg, 16)
			cp, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cp.Config, cfg) {
				t.Fatalf("config round-trip: got %+v want %+v", cp.Config, cfg)
			}
			if cp.State.Tick != 16 {
				t.Fatalf("tick %d, want 16", cp.State.Tick)
			}
			if again := Encode(cp); !bytes.Equal(again, blob) {
				t.Fatal("re-encoding a decoded checkpoint changed the bytes")
			}
		})
	}
}

// TestRestoreContinuesBitIdentically: the codec boundary must preserve
// the fleet-level resume guarantee — K ticks, serialize, restore, K more
// equals the uninterrupted 2K run.
func TestRestoreContinuesBitIdentically(t *testing.T) {
	const k = 16
	for name, cfg := range map[string]SessionConfig{"clean": cleanConfig(), "full": fullConfig()} {
		t.Run(name, func(t *testing.T) {
			ref, err := NewPipeline(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*k; i++ {
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
			}
			want := ref.Result()
			ref.Close()

			blob := snapshotAfter(t, cfg, k)
			rcfg, p, err := Restore(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rcfg, cfg) {
				t.Fatalf("restored config %+v want %+v", rcfg, cfg)
			}
			for i := 0; i < k; i++ {
				if err := p.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := p.Result(); got != want {
				t.Fatalf("resumed result %+v\nwant %+v", got, want)
			}
			p.Close()
		})
	}
}

// TestDecodeRejectsMalformed: every corruption class must error cleanly.
func TestDecodeRejectsMalformed(t *testing.T) {
	blob := snapshotAfter(t, fullConfig(), 8)

	if _, err := Decode(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Fatalf("bad magic: got %v", err)
	}
	bad = append([]byte(nil), blob...)
	bad[5] = 0xFF // version
	if _, err := Decode(bad); err == nil {
		t.Fatal("future version accepted")
	}
	for _, cut := range []int{1, 4, 6, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); err != ErrTrailing {
		t.Fatalf("trailing byte: got %v", err)
	}
	// Non-finite floats cannot come from a real session, and a NaN that
	// slipped through would break DeepEqual-based round-trip checks.
	cp, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	cp.Config.SampleRateHz = math.NaN()
	if _, err := Decode(Encode(cp)); err != ErrNonFinite {
		t.Fatalf("NaN float: got %v, want ErrNonFinite", err)
	}
	cp.Config.SampleRateHz = math.Inf(1)
	if _, err := Decode(Encode(cp)); err != ErrNonFinite {
		t.Fatalf("+Inf float: got %v, want ErrNonFinite", err)
	}
}

// TestRestoreRejectsTamperedState: a blob whose state no longer matches
// its own config must fail restore, not produce a wrong session.
func TestRestoreRejectsTamperedState(t *testing.T) {
	blob := snapshotAfter(t, fullConfig(), 8)
	for _, tc := range []struct {
		name   string
		tamper func(*SessionConfig)
	}{
		// The config now disagrees with the recorded RNG streams.
		{"seed", func(c *SessionConfig) { c.Seed++ }},
		// A forged size past its bound is rejected before the pipeline
		// builder allocates for it.
		{"sample-rate", func(c *SessionConfig) { c.SampleRateHz = 1e12 }},
	} {
		cp, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		tc.tamper(&cp.Config)
		if _, _, err := Restore(Encode(cp)); err == nil {
			t.Errorf("restore with tampered %s succeeded", tc.name)
		}
	}
}
