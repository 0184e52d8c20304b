package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"mindful/internal/serve/checkpoint"
)

// decodeSessionConfig is the serve smoke session with a decoder in the
// loop; the odd bin size means checkpoints land mid-bin.
func decodeSessionConfig(dec string) checkpoint.SessionConfig {
	cfg := testSessionConfig()
	cfg.Decoder = dec
	cfg.DecodeBin = 3
	return cfg
}

// decodeEstimates unpacks the payload of a RecordFlagDecoded record into
// the decoder's state estimate.
func decodeEstimates(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("serve: decoded payload length %d is not a multiple of 8", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// resultAfter runs the session config uninterrupted for n ticks
// in-process and returns the full result — the reference for served
// decode assertions.
func resultAfter(t *testing.T, cfg checkpoint.SessionConfig, n int) (digest, decodeDigest string, steps int64) {
	t.Helper()
	p, err := checkpoint.NewPipeline(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < n; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := p.Result()
	return fmt.Sprintf("%d", res.Digest), fmt.Sprintf("%d", res.DecodeDigest), res.DecodedSteps
}

// TestDecodedStreamEndToEnd: a decoded-mode subscriber receives exactly
// the decoder's steps as big-endian kinematics records, a frame-mode
// subscriber on the same session never sees them, and the session info
// reports the decode accounting.
func TestDecodedStreamEndToEnd(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	cfg := decodeSessionConfig("kalman")

	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Decoder != "kalman" {
		t.Fatalf("created session decoder %q, want kalman", info.Decoder)
	}

	decConn, decBr, err := subscribe(srv.StreamAddr(), info.ID, "decoded")
	if err != nil {
		t.Fatal(err)
	}
	defer decConn.Close()
	frConn, frBr, err := subscribe(srv.StreamAddr(), info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer frConn.Close()

	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}

	var decodedRecords int
	lastTick := -1
	for {
		rec, err := ReadRecord(decBr)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Flags&RecordFlagDecoded == 0 {
			t.Fatalf("decoded stream delivered a non-decoded record (flags %#x)", rec.Flags)
		}
		if int(rec.Tick) <= lastTick {
			t.Fatalf("decoded tick went backwards: %d after %d", rec.Tick, lastTick)
		}
		lastTick = int(rec.Tick)
		est, err := decodeEstimates(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(est) != 2 {
			t.Fatalf("estimate has %d dims, want 2", len(est))
		}
		decodedRecords++
	}
	for {
		rec, err := ReadRecord(frBr)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Flags&RecordFlagDecoded != 0 {
			t.Fatal("frame stream delivered a decoded record")
		}
	}

	done := waitState(t, base, info.ID, StateDone)
	wantDigest, wantDecode, wantSteps := resultAfter(t, cfg, cfg.Ticks)
	if done.Digest != wantDigest {
		t.Fatalf("served digest %s, want %s", done.Digest, wantDigest)
	}
	if done.DecodeDigest != wantDecode {
		t.Fatalf("served decode digest %s, want %s", done.DecodeDigest, wantDecode)
	}
	if done.DecodedSteps != wantSteps || int64(decodedRecords) != wantSteps {
		t.Fatalf("decoded steps: info %d, streamed %d, want %d", done.DecodedSteps, decodedRecords, wantSteps)
	}
	if done.DecodedPublished != wantSteps {
		t.Fatalf("decoded published %d, want %d", done.DecodedPublished, wantSteps)
	}
	if wantSteps == 0 {
		t.Fatal("reference run decoded nothing — test is vacuous")
	}
}

// TestDecodedSubscribeRejectedWithoutDecoder: decoded-mode subscriptions
// against a decoder-less session fail at the SUB handshake.
func TestDecodedSubscribeRejectedWithoutDecoder(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	info, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := subscribe(srv.StreamAddr(), info.ID, "decoded"); err == nil {
		t.Fatal("decoded subscription accepted on a session without a decoder")
	}
}

// TestGatewayRestoreWithDecoder is the acceptance criterion at the
// gateway layer: run a decoder session to K over HTTP, checkpoint it,
// restore with target 2K, and the continuation's frame and decode
// digests both equal an uninterrupted in-process 2K run.
func TestGatewayRestoreWithDecoder(t *testing.T) {
	for _, dec := range []string{"kalman", "wiener", "dnn"} {
		t.Run(dec, func(t *testing.T) {
			srv := startServer(t, Config{})
			base := "http://" + srv.ControlAddr()
			cfg := decodeSessionConfig(dec)

			info, err := createSession(base, CreateRequest{SessionConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, base, info.ID, StateDone)

			resp, err := http.Get(base + "/api/sessions/" + info.ID + "/checkpoint")
			if err != nil {
				t.Fatal(err)
			}
			blob, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("checkpoint fetch: status %d err %v", resp.StatusCode, err)
			}

			restored, err := restoreSession(base, blob, 2*cfg.Ticks)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Decoder != dec {
				t.Fatalf("restored session decoder %q, want %q", restored.Decoder, dec)
			}
			finished := waitState(t, base, restored.ID, StateDone)
			wantDigest, wantDecode, wantSteps := resultAfter(t, cfg, 2*cfg.Ticks)
			if finished.Digest != wantDigest {
				t.Fatalf("restored digest %s, want uninterrupted %s", finished.Digest, wantDigest)
			}
			if finished.DecodeDigest != wantDecode {
				t.Fatalf("restored decode digest %s, want uninterrupted %s", finished.DecodeDigest, wantDecode)
			}
			if finished.DecodedSteps != wantSteps || wantSteps == 0 {
				t.Fatalf("restored decoded steps %d, want %d (nonzero)", finished.DecodedSteps, wantSteps)
			}
		})
	}
}

// TestDefaultDecoderApplied: a gateway configured with a default decoder
// attaches it to sessions that do not name one, without overriding an
// explicit choice.
func TestDefaultDecoderApplied(t *testing.T) {
	srv := startServer(t, Config{DefaultDecoder: "wiener"})
	base := "http://" + srv.ControlAddr()

	inherited, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if inherited.Decoder != "wiener" {
		t.Fatalf("session decoder %q, want inherited wiener", inherited.Decoder)
	}
	explicit, err := createSession(base, CreateRequest{SessionConfig: decodeSessionConfig("kalman")})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Decoder != "kalman" {
		t.Fatalf("session decoder %q, want explicit kalman", explicit.Decoder)
	}
	done := waitState(t, base, inherited.ID, StateDone)
	if done.DecodedSteps == 0 {
		t.Fatal("inherited decoder never stepped")
	}
}
