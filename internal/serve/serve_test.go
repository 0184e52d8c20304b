package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mindful/internal/comm"
	"mindful/internal/fleet"
	"mindful/internal/serve/checkpoint"
)

func testSessionConfig() checkpoint.SessionConfig {
	return checkpoint.SessionConfig{
		Channels:     16,
		SampleRateHz: 2000,
		SampleBits:   10,
		QAMBits:      4,
		EbN0dB:       12,
		Seed:         11,
		Ticks:        50,
	}
}

// startServer boots a loopback gateway and tears it down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// Minimal HTTP helpers for the tests — the control plane is plain JSON.

func createSession(base string, req CreateRequest) (SessionInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SessionInfo{}, err
	}
	resp, err := http.Post(base+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return SessionInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return SessionInfo{}, httpError("create session", resp)
	}
	var info SessionInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

func getSession(base, id string) (SessionInfo, error) {
	resp, err := http.Get(base + "/api/sessions/" + id)
	if err != nil {
		return SessionInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SessionInfo{}, httpError("get session", resp)
	}
	var info SessionInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

func post(url string, body []byte) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return httpError("post "+url, resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func httpError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("serve: %s: HTTP %d: %s", op, resp.StatusCode, bytes.TrimSpace(msg))
}

// digestAfter runs the session config uninterrupted for n ticks
// in-process and returns the pipeline digest — the reference for every
// served digest assertion.
func digestAfter(t *testing.T, cfg checkpoint.SessionConfig, n int) string {
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
	return fmt.Sprintf("%d", p.Result().Digest)
}

// waitState polls until the session reaches the state (or fails the
// test after two seconds).
func waitState(t *testing.T, base, id, state string) SessionInfo {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err := getSession(base, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == state {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s, want %s", id, info.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeSmoke is the end-to-end pass the Makefile smoke target runs:
// create a paused session, subscribe over TCP, resume, stream every
// frame, snapshot the finished session, restore it with an extended
// tick target, and assert the continued digest equals an uninterrupted
// run — checkpoint/restore is invisible to the byte stream.
func TestServeSmoke(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()

	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StatePaused {
		t.Fatalf("created state %s, want paused", info.State)
	}

	conn, br, err := subscribe(srv.StreamAddr(), info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}

	var records int
	lastTick := -1
	for {
		rec, err := ReadRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int(rec.Tick) <= lastTick {
			t.Fatalf("tick went backwards: %d after %d", rec.Tick, lastTick)
		}
		lastTick = int(rec.Tick)
		if len(rec.Data) == 0 {
			t.Fatal("empty frame record")
		}
		records++
	}
	if records == 0 {
		t.Fatal("no records streamed")
	}

	done := waitState(t, base, info.ID, StateDone)
	if done.Tick != cfg.Ticks {
		t.Fatalf("finished at tick %d, want %d", done.Tick, cfg.Ticks)
	}
	if want := digestAfter(t, cfg, cfg.Ticks); done.Digest != want {
		t.Fatalf("served digest %s, want %s", done.Digest, want)
	}

	// Snapshot the finished session and restore with double the target.
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
	finished := waitState(t, base, restored.ID, StateDone)
	if finished.Tick != 2*cfg.Ticks {
		t.Fatalf("restored session finished at tick %d, want %d", finished.Tick, 2*cfg.Ticks)
	}
	if want := digestAfter(t, cfg, 2*cfg.Ticks); finished.Digest != want {
		t.Fatalf("restored digest %s, want uninterrupted %s", finished.Digest, want)
	}
}

// restoreSession posts a checkpoint blob with an extended tick target.
func restoreSession(base string, blob []byte, ticks int) (SessionInfo, error) {
	url := fmt.Sprintf("%s/api/sessions/restore?ticks=%d", base, ticks)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		return SessionInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return SessionInfo{}, httpError("restore", resp)
	}
	var info SessionInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// TestCreateRejectsUnusableEbN0: an Eb/N0 whose linear value underflows
// or overflows is a config error answered like any other invalid
// session config, not a panic in the control handler, and the gateway
// keeps serving.
func TestCreateRejectsUnusableEbN0(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	for _, db := range []float64{-4000, 4000} {
		cfg := testSessionConfig()
		cfg.EbN0dB = db
		if code := createStatus(t, base, cfg); code != http.StatusUnprocessableEntity {
			t.Errorf("ebn0_db %g: status %d, want %d", db, code, http.StatusUnprocessableEntity)
		}
	}
	if _, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig()}); err != nil {
		t.Fatalf("valid create after rejections: %v", err)
	}
}

// TestCreateRejectsOversizedConfig: each size one past its bound is a
// 422 before anything is allocated — 1e12 Hz used to kill the gateway
// with an unrecoverable out-of-memory — and the gateway still creates a
// valid session afterwards.
func TestCreateRejectsOversizedConfig(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	for _, tc := range []struct {
		field  string
		mutate func(*checkpoint.SessionConfig)
	}{
		{"channels", func(c *checkpoint.SessionConfig) { c.Channels = fleet.MaxChannels + 1 }},
		{"sample_rate_hz", func(c *checkpoint.SessionConfig) { c.SampleRateHz = fleet.MaxSampleRateHz + 1 }},
		{"sample_rate_hz", func(c *checkpoint.SessionConfig) { c.SampleRateHz = 1e12 }},
		{"meter_ref", func(c *checkpoint.SessionConfig) {
			c.Decoder, c.Track, c.MeterRef = "kalman", true, fleet.MaxMeterBins+1
		}},
		{"meter_win", func(c *checkpoint.SessionConfig) {
			c.Decoder, c.Track, c.MeterWin = "kalman", true, fleet.MaxMeterBins+1
		}},
		// qam_bits past comm.MaxQAMBits: 200 used to panic the session
		// goroutine, 64 to exhaust memory in validation, −2 to panic the
		// handler.
		{"qam_bits", func(c *checkpoint.SessionConfig) { c.QAMBits = comm.MaxQAMBits + 2 }},
		{"qam_bits", func(c *checkpoint.SessionConfig) { c.QAMBits = 64 }},
		{"qam_bits", func(c *checkpoint.SessionConfig) { c.QAMBits = 200 }},
		{"qam_bits", func(c *checkpoint.SessionConfig) { c.QAMBits = -2 }},
	} {
		cfg := testSessionConfig()
		tc.mutate(&cfg)
		if code := createStatus(t, base, cfg); code != http.StatusUnprocessableEntity {
			t.Errorf("%s past its bound: status %d, want %d", tc.field, code, http.StatusUnprocessableEntity)
		}
	}
	info, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig()})
	if err != nil {
		t.Fatalf("valid create after rejections: %v", err)
	}
	if done := waitState(t, base, info.ID, StateDone); done.Tick != testSessionConfig().Ticks {
		t.Fatalf("valid session after rejections stopped at tick %d", done.Tick)
	}
}

// createStatus POSTs a session config and returns the response status.
func createStatus(t *testing.T, base string, cfg checkpoint.SessionConfig) int {
	t.Helper()
	body, err := json.Marshal(CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestSlowConsumerDropsOldest: a subscriber that never reads fills its
// bounded queue; the session drops its oldest records and keeps
// ticking — and a second session on the same gateway is unaffected.
func TestSlowConsumerDropsOldest(t *testing.T) {
	srv := startServer(t, Config{QueueDepth: 4, StallTimeout: time.Hour})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()

	stalled, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.session(stalled.ID)
	if err != nil {
		t.Fatal(err)
	}
	// net.Pipe is unbuffered: the writer blocks on its first record, so
	// the ring demonstrably fills and drops while the tick loop runs on.
	client, server := net.Pipe()
	defer client.Close()
	sub := newSubscriber(sess, server, srv.queueDepth(), srv.stallTimeout())
	if err := sess.attach(sub); err != nil {
		t.Fatal(err)
	}
	go sub.writeLoop()

	healthy, err := createSession(base, CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := post(base+"/api/sessions/"+stalled.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}

	// The healthy session must finish even though its neighbor's
	// subscriber is wedged.
	waitState(t, base, healthy.ID, StateDone)
	stalledInfo := waitState(t, base, stalled.ID, StateDone)
	if stalledInfo.Tick != cfg.Ticks {
		t.Fatalf("stalled-subscriber session stopped at tick %d, want %d", stalledInfo.Tick, cfg.Ticks)
	}
	if stalledInfo.Dropped == 0 {
		t.Fatal("full queue dropped nothing — drop-oldest policy broken")
	}
	if stalledInfo.Published < int64(stalledInfo.Dropped) {
		t.Fatalf("dropped %d exceeds published %d", stalledInfo.Dropped, stalledInfo.Published)
	}
}

// TestStalledSubscriberEvicted: a subscriber whose connection blocks
// writes past the stall timeout is evicted; the session keeps running.
func TestStalledSubscriberEvicted(t *testing.T) {
	srv := startServer(t, Config{QueueDepth: 4, StallTimeout: 20 * time.Millisecond})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()

	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.session(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	sub := newSubscriber(sess, server, srv.queueDepth(), srv.stallTimeout())
	if err := sess.attach(sub); err != nil {
		t.Fatal(err)
	}
	go sub.writeLoop()

	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, base, info.ID, StateDone)
	if final.Tick != cfg.Ticks {
		t.Fatalf("session stopped at tick %d, want %d — the stalled subscriber blocked the loop", final.Tick, cfg.Ticks)
	}
	// The session can finish before the write deadline fires; the
	// eviction itself lands shortly after.
	deadline := time.Now().Add(2 * time.Second)
	for {
		final, err = getSession(base, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Evicted == 1 && final.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted=%d subscribers=%d, want 1 and 0", final.Evicted, final.Subscribers)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPauseResumeSnapshot: pausing quiesces the tick loop; a snapshot
// taken while paused restores to the identical continuation.
func TestPauseResumeSnapshot(t *testing.T) {
	srv := startServer(t, Config{TickInterval: time.Millisecond})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()

	info, err := createSession(base, CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := post(base+"/api/sessions/"+info.ID+"/pause", nil); err != nil {
		t.Fatal(err)
	}
	paused := waitState(t, base, info.ID, StatePaused)
	if paused.Tick == 0 || paused.Tick >= cfg.Ticks {
		t.Fatalf("paused at tick %d, want mid-run", paused.Tick)
	}
	resp, err := http.Get(base + "/api/sessions/" + info.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := restoreSession(base, blob, cfg.Ticks)
	if err != nil {
		t.Fatal(err)
	}
	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	a := waitState(t, base, info.ID, StateDone)
	b := waitState(t, base, restored.ID, StateDone)
	if a.Digest != b.Digest {
		t.Fatalf("paused/restored digests diverged: %s vs %s", a.Digest, b.Digest)
	}
}

// TestShutdownDrainsSnapshots: graceful shutdown writes one restorable
// checkpoint per live session.
func TestShutdownDrainsSnapshots(t *testing.T) {
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
	cfg.Ticks = 0 // unbounded: only the drain stops it
	var ids []string
	for i := 0; i < 3; i++ {
		scfg := cfg
		scfg.Seed += int64(i)
		info, err := createSession(base, CreateRequest{SessionConfig: scfg})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		blob, err := os.ReadFile(filepath.Join(dir, id+".ckpt"))
		if err != nil {
			t.Fatalf("drained snapshot missing: %v", err)
		}
		rcfg, p, err := checkpoint.Restore(blob)
		if err != nil {
			t.Fatalf("drained snapshot unrestorable: %v", err)
		}
		if rcfg.Channels != cfg.Channels {
			t.Fatalf("restored config channels %d, want %d", rcfg.Channels, cfg.Channels)
		}
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
}
