package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"mindful/internal/cluster/wire"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/fleet"
	"mindful/internal/serve/checkpoint"
)

// exportEnvelope drives the migration-source endpoint.
func exportEnvelope(base, id, key string) (wire.Envelope, error) {
	resp, err := http.Post(base+"/api/sessions/"+id+"/export?key="+key, "application/octet-stream", nil)
	if err != nil {
		return wire.Envelope{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wire.Envelope{}, httpError("export", resp)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return wire.Envelope{}, err
	}
	return wire.Decode(buf)
}

// importEnvelope drives the migration-target endpoint.
func importEnvelope(base string, env wire.Envelope) (SessionInfo, error) {
	buf, err := wire.Encode(env)
	if err != nil {
		return SessionInfo{}, err
	}
	resp, err := http.Post(base+"/api/sessions/import", "application/octet-stream", bytes.NewReader(buf))
	if err != nil {
		return SessionInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return SessionInfo{}, httpError("import", resp)
	}
	var info SessionInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// TestExportImportTransfersSession: the export/import pair moves a
// running session between two gateways mid-stream, and the continued
// run is bit-identical to an uninterrupted one.
func TestExportImportTransfersSession(t *testing.T) {
	src := startServer(t, Config{TickInterval: time.Millisecond})
	dst := startServer(t, Config{})
	srcBase := "http://" + src.ControlAddr()
	dstBase := "http://" + dst.ControlAddr()
	cfg := testSessionConfig()

	info, err := createSession(srcBase, CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let it get mid-stream

	env, err := exportEnvelope(srcBase, info.ID, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	if env.Key != "c000001" || env.SourceID != info.ID {
		t.Fatalf("envelope identity %q/%q, want c000001/%s", env.Key, env.SourceID, info.ID)
	}
	if env.Tick == 0 || env.Tick >= uint64(cfg.Ticks) {
		t.Fatalf("exported at tick %d, want mid-run", env.Tick)
	}
	// Export leaves the source paused.
	paused := waitState(t, srcBase, info.ID, StatePaused)
	if paused.Tick != int(env.Tick) {
		t.Fatalf("source paused at tick %d, envelope says %d", paused.Tick, env.Tick)
	}

	imported, err := importEnvelope(dstBase, env)
	if err != nil {
		t.Fatal(err)
	}
	if imported.State != StatePaused || imported.Tick != int(env.Tick) {
		t.Fatalf("imported state %s@%d, want paused@%d", imported.State, imported.Tick, env.Tick)
	}

	// Coordinator order: delete the source before the target runs, so
	// the session never executes on two shards at once.
	if err := post(srcBase+"/api/sessions/"+info.ID, nil); err == nil {
		t.Fatal("POST to DELETE route unexpectedly succeeded") // guard against mux typos
	}
	if err := del(srcBase + "/api/sessions/" + info.ID); err != nil {
		t.Fatal(err)
	}
	if err := post(dstBase+"/api/sessions/"+imported.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, dstBase, imported.ID, StateDone)
	if want := digestAfter(t, cfg, cfg.Ticks); done.Digest != want {
		t.Fatalf("migrated digest %s, want uninterrupted %s", done.Digest, want)
	}
}

// TestImportRejectsTickMismatch: a transfer whose envelope tick
// disagrees with the checkpoint inside it must be rejected, and the
// target must not keep a half-imported session.
func TestImportRejectsTickMismatch(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()

	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := exportEnvelope(base, info.ID, "k")
	if err != nil {
		t.Fatal(err)
	}
	env.Tick++
	if _, err := importEnvelope(base, env); err == nil {
		t.Fatal("mismatched envelope imported")
	}
	infos := srv.Sessions()
	if len(infos) != 1 {
		t.Fatalf("%d sessions after rejected import, want the original 1", len(infos))
	}
}

// TestImportRejectsForgedQAMBits: a transfer whose checkpoint carries
// QAM bits past comm.MaxQAMBits is rejected at import, and the target
// keeps only its original session.
func TestImportRejectsForgedQAMBits(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	info, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := exportEnvelope(base, info.ID, "k")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := checkpoint.Decode(env.Blob)
	if err != nil {
		t.Fatal(err)
	}
	cp.Config.QAMBits = 200
	env.Blob = checkpoint.Encode(cp)
	if _, err := importEnvelope(base, env); err == nil {
		t.Fatal("checkpoint with QAM bits 200 imported")
	}
	if n := len(srv.Sessions()); n != 1 {
		t.Fatalf("%d sessions after rejected import, want the original 1", n)
	}
}

// TestImportRejectsForgedStreamSeeds: a transfer whose checkpoint
// carries a burst-link, brownout or drift RNG seed other than the one
// the session config derives is rejected at import — it would replay a
// different fault or drift history under the same config — and the
// target keeps only its original session.
func TestImportRejectsForgedStreamSeeds(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()
	faults := fault.DefaultProfile()
	cfg.Faults = &faults
	dp := drift.DefaultProfile()
	dp.EpochTicks = 8
	cfg.Drift = &dp
	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := exportEnvelope(base, info.ID, "k")
	if err != nil {
		t.Fatal(err)
	}
	for name, forge := range map[string]func(*fleet.PipelineState){
		"burst link": func(s *fleet.PipelineState) { s.Link.RNG.Seed++ },
		"brownout":   func(s *fleet.PipelineState) { s.Brown.RNG.Seed++ },
		"drift":      func(s *fleet.PipelineState) { s.Drift.RNG.Seed++ },
	} {
		cp, err := checkpoint.Decode(env.Blob)
		if err != nil {
			t.Fatal(err)
		}
		if cp.State.Link == nil || cp.State.Brown == nil || cp.State.Drift == nil {
			t.Fatal("checkpoint lacks a burst-link, brownout or drift stream")
		}
		forge(&cp.State)
		forged := env
		forged.Blob = checkpoint.Encode(cp)
		if _, err := importEnvelope(base, forged); err == nil {
			t.Errorf("%s: checkpoint with a forged RNG seed imported", name)
		}
	}
	if n := len(srv.Sessions()); n != 1 {
		t.Fatalf("%d sessions after rejected imports, want the original 1", n)
	}
	// The unedited transfer still imports.
	if _, err := importEnvelope(base, env); err != nil {
		t.Fatalf("unedited checkpoint rejected: %v", err)
	}
}

// TestImportRejectsGarbage: the import endpoint must 400 on bytes that
// are not an envelope, never panic.
func TestImportRejectsGarbage(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	for _, body := range [][]byte{nil, []byte("junk"), bytes.Repeat([]byte{0xFF}, 64)} {
		resp, err := http.Post(base+"/api/sessions/import", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage import: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestReadyzDrainingReturns503: /readyz must answer 503 the moment a
// shard starts draining for a rebalance and recover once it ends — the
// contract load balancers key new placements off.
func TestReadyzDrainingReturns503(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	readyz := func() int {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", code)
	}
	srv.SetDraining(true)
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	// The control plane itself must stay up for the migration traffic.
	if _, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true}); err != nil {
		t.Fatalf("control plane refused work while draining: %v", err)
	}
	srv.SetDraining(false)
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after drain: %d, want 200", code)
	}
}

// TestSubscribeMoved: a gateway with a redirect hook answers MOVED for
// sessions it does not host, and SubscribeFollow lands on the target.
func TestSubscribeMoved(t *testing.T) {
	target := startServer(t, Config{})
	tgtBase := "http://" + target.ControlAddr()
	cfg := testSessionConfig()
	hosted, err := createSession(tgtBase, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}

	front := startServer(t, Config{Redirect: func(id string) (string, string, bool) {
		if id == "cluster-1" {
			return target.StreamAddr(), hosted.ID, true
		}
		return "", "", false
	}})

	// Direct subscribe reports the move.
	_, _, err = subscribe(front.StreamAddr(), "cluster-1", "")
	var moved *MovedError
	if !errors.As(err, &moved) {
		t.Fatalf("subscribe err = %v, want MovedError", err)
	}
	if moved.Addr != target.StreamAddr() || moved.ID != hosted.ID {
		t.Fatalf("moved to %s/%s, want %s/%s", moved.Addr, moved.ID, target.StreamAddr(), hosted.ID)
	}
	// Unknown IDs still error.
	if _, _, err := subscribe(front.StreamAddr(), "nope", ""); err == nil || errors.As(err, &moved) {
		t.Fatalf("unknown session err = %v, want plain rejection", err)
	}

	// The following subscriber streams the real session end to end.
	conn, br, err := SubscribeFollow(front.StreamAddr(), "cluster-1", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := post(tgtBase+"/api/sessions/"+hosted.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	var records int
	for {
		if _, err := ReadRecord(br); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		records++
	}
	if records == 0 {
		t.Fatal("no records through the redirect")
	}
}

// TestKillIsAbrupt: Kill severs subscribers mid-stream without the
// end-of-session drain and leaves no snapshots behind — the in-process
// stand-in for a gateway dying under SIGKILL.
func TestKillIsAbrupt(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{SnapshotDir: dir, TickInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()
	cfg.Ticks = 0 // unbounded: only death stops it
	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	conn, br, err := subscribe(srv.StreamAddr(), info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecord(br); err != nil {
		t.Fatal(err)
	}

	srv.Kill()
	// The stream dies with an error, not a clean EOF-after-flush; a
	// clean EOF would mean the drain path ran.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := ReadRecord(br); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream still alive after Kill")
		}
	}
	if srv.Ready() {
		t.Fatal("killed gateway reports ready")
	}
	if _, err := getSession(base, info.ID); err == nil {
		t.Fatal("control plane still answering after Kill")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Kill wrote %d snapshots, want none", len(entries))
	}
	srv.Kill() // idempotent
}

// del issues an HTTP DELETE.
func del(url string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return httpError("delete "+url, resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
