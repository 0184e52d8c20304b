package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
)

// decoderConfigs returns the full-stack session with each decoder kind
// attached.
func decoderConfigs() map[string]SessionConfig {
	out := make(map[string]SessionConfig)
	for _, dec := range []string{"kalman", "wiener", "dnn"} {
		cfg := fullConfig()
		cfg.Decoder = dec
		cfg.DecodeBin = 3 // odd vs the snapshot point: a partial bin crosses the boundary
		out[dec] = cfg
	}
	return out
}

// TestRoundTripWithDecoder: v2 blobs carrying decoder state must decode
// to the exact checkpoint and re-encode canonically.
func TestRoundTripWithDecoder(t *testing.T) {
	for name, cfg := range decoderConfigs() {
		t.Run(name, func(t *testing.T) {
			blob := snapshotAfter(t, cfg, 16)
			cp, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cp.Config, cfg) {
				t.Fatalf("config round-trip: got %+v want %+v", cp.Config, cfg)
			}
			if cp.State.Decode == nil {
				t.Fatal("decoder session encoded without decode state")
			}
			if again := Encode(cp); !bytes.Equal(again, blob) {
				t.Fatal("re-encoding a decoded checkpoint changed the bytes")
			}
		})
	}
}

// TestRestoreContinuesBitIdenticallyWithDecoder: the acceptance
// criterion at the codec layer — K ticks, serialize with decoder
// temporal state, restore, K more equals the uninterrupted 2K run
// including the decode digest.
func TestRestoreContinuesBitIdenticallyWithDecoder(t *testing.T) {
	const k = 16
	for name, cfg := range decoderConfigs() {
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
			if want.DecodedSteps == 0 {
				t.Fatal("decoder never stepped")
			}

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
				t.Fatalf("resumed result\n%+v\nwant %+v", got, want)
			}
			p.Close()
		})
	}
}

// TestRejectsUnknownDecoderName: a session config naming a decoder this
// build does not implement must fail at validation, not mid-snapshot.
func TestRejectsUnknownDecoderName(t *testing.T) {
	cfg := fullConfig()
	cfg.Decoder = "transformer"
	if _, err := cfg.FleetConfig(); err == nil {
		t.Fatal("unknown decoder name accepted")
	}
	if _, err := NewPipeline(cfg, 0); err == nil {
		t.Fatal("NewPipeline accepted unknown decoder")
	}
}

// TestRejectsUnknownDecoderKindByte: a v2 blob whose decoder-kind byte
// is out of range must be rejected with a clear error and, like every
// other rejection, the zero Checkpoint.
func TestRejectsUnknownDecoderKindByte(t *testing.T) {
	cfg := decoderConfigs()["kalman"]
	blob := snapshotAfter(t, cfg, 4)
	cp, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the kind byte deterministically: re-encode with a different
	// kind and diff the two blobs — the first differing byte is it.
	cp2 := cp
	cp2.Config.Decoder = "wiener"
	alt := Encode(cp2)
	diff := -1
	for i := range blob {
		if blob[i] != alt[i] {
			diff = i
			break
		}
	}
	if diff < 0 {
		t.Fatal("could not locate decoder kind byte")
	}
	bad := append([]byte(nil), blob...)
	bad[diff] = 0xEE
	got, err := Decode(bad)
	if err == nil {
		t.Fatal("out-of-range decoder kind accepted")
	}
	if !reflect.DeepEqual(got, Checkpoint{}) {
		t.Fatalf("rejected blob returned a partly decoded checkpoint: %+v", got.Config)
	}
}
