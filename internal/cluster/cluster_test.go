package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mindful/internal/serve"
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

// startCluster boots a front tier with n self-hosted shards on
// loopback. Background loops are off — the tests drive checkpoints and
// recovery explicitly so they stay deterministic.
func startCluster(t *testing.T, n int, shard serve.Config) *Cluster {
	t.Helper()
	c, err := New(Config{
		CheckpointInterval: -1,
		HealthInterval:     -1,
		Shard:              shard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownCluster(t, c) })
	for i := 0; i < n; i++ {
		if err := c.AddShard(fmt.Sprintf("shard-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// shutdownCluster tears a front tier (and its self-hosted shards) down.
func shutdownCluster(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.Shutdown(ctx)
}

// digests runs a session config uninterrupted in-process and returns
// the reference frame and decode digests every clustered assertion
// compares against.
func digests(t *testing.T, cfg checkpoint.SessionConfig) (frame, decode string) {
	t.Helper()
	p, err := checkpoint.NewPipeline(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < cfg.Ticks; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := p.Result()
	return fmt.Sprintf("%d", res.Digest), fmt.Sprintf("%d", res.DecodeDigest)
}

// waitKeyState polls the front tier until a session reaches a state.
func waitKeyState(t *testing.T, c *Cluster, key, state string) Info {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := c.SessionInfo(key)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == state {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s, want %s", key, info.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitKeyTick polls until a session passes a tick.
func waitKeyTick(t *testing.T, c *Cluster, key string, tick int) Info {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := c.SessionInfo(key)
		if err != nil {
			t.Fatal(err)
		}
		if info.Tick >= tick || info.State == serve.StateDone {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck at tick %d, want >= %d", key, info.Tick, tick)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterPlacesAcrossShards: the front tier spreads sessions over
// the ring, routes per-key reads to the right shard, and deletes
// through.
func TestClusterPlacesAcrossShards(t *testing.T) {
	c := startCluster(t, 3, serve.Config{})
	keys := make([]string, 0, 24)
	for i := 0; i < 24; i++ {
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		if info.Key == "" || info.Shard == "" || info.ID == "" {
			t.Fatalf("incomplete info %+v", info)
		}
		keys = append(keys, info.Key)
	}

	topo := c.Topology()
	if topo.Sessions != 24 {
		t.Fatalf("topology reports %d sessions, want 24", topo.Sessions)
	}
	placed := 0
	for _, sh := range topo.Shards {
		if sh.Sessions == 24 {
			t.Fatalf("all sessions landed on %s — no spreading", sh.ID)
		}
		placed += sh.Sessions
		if !sh.Ready {
			t.Fatalf("shard %s not ready", sh.ID)
		}
	}
	if placed != 24 {
		t.Fatalf("placement counts sum to %d, want 24", placed)
	}

	// Per-key fetch agrees with creation-time placement.
	for _, key := range keys {
		if _, err := c.SessionInfo(key); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 24 {
		t.Fatalf("Sessions() lists %d, want 24", len(infos))
	}

	if err := c.DeleteSession(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionInfo(keys[0]); err == nil {
		t.Fatal("deleted session still resolves")
	}
	if _, err := c.CreateSession(serve.CreateRequest{}); err == nil {
		t.Fatal("invalid session config accepted")
	}
}

// TestClusterRedirectStreams: a subscriber that dials the front tier's
// data plane is MOVED to the owning shard and streams the full session.
func TestClusterRedirectStreams(t *testing.T) {
	c := startCluster(t, 3, serve.Config{})
	cfg := testSessionConfig()
	info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	conn, br, err := serve.SubscribeFollow(c.StreamAddr(), info.Key, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := c.ResumeSession(info.Key); err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		if _, err := serve.ReadRecord(br); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		records++
	}
	if records != cfg.Ticks {
		t.Fatalf("streamed %d records through the redirect, want %d", records, cfg.Ticks)
	}
	// Unknown keys get a plain rejection, not a redirect loop.
	if _, _, err := serve.SubscribeFollow(c.StreamAddr(), "c999999", "", 3); err == nil {
		t.Fatal("unknown key subscribed")
	}
}

// TestClusterJoinMovesOnlyStolenKeys: adding a shard rebalances exactly
// the sessions the ring now assigns to the joiner; everything else
// stays put — the live counterpart of the ring's minimal-disruption
// property.
func TestClusterJoinMovesOnlyStolenKeys(t *testing.T) {
	c := startCluster(t, 2, serve.Config{})
	before := make(map[string]string)
	for i := 0; i < 16; i++ {
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		before[info.Key] = info.Shard
	}

	if err := c.AddShard("shard-late"); err != nil {
		t.Fatal(err)
	}

	moved := 0
	for key, was := range before {
		info, err := c.SessionInfo(key)
		if err != nil {
			t.Fatal(err)
		}
		if info.Shard != was {
			if info.Shard != "shard-late" {
				t.Fatalf("session %s moved %s->%s on a join — not minimal", key, was, info.Shard)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("join moved no sessions (16 keys, 3 shards — statistically impossible)")
	}
	// Paused sessions must still be paused after their migration: the
	// rebalance must not silently start them.
	for key := range before {
		info, err := c.SessionInfo(key)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != serve.StatePaused {
			t.Fatalf("session %s is %s after rebalance, want still paused", key, info.State)
		}
	}
}

// TestClusterRemoveShardDrains: removing a shard migrates its sessions
// off before the member disappears; no session is lost.
func TestClusterRemoveShardDrains(t *testing.T) {
	c := startCluster(t, 3, serve.Config{})
	keys := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, info.Key)
	}
	if err := c.RemoveShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	topo := c.Topology()
	if len(topo.Shards) != 2 {
		t.Fatalf("%d shards after remove, want 2", len(topo.Shards))
	}
	if topo.Sessions != 12 {
		t.Fatalf("%d sessions after remove, want all 12", topo.Sessions)
	}
	for _, key := range keys {
		info, err := c.SessionInfo(key)
		if err != nil {
			t.Fatal(err)
		}
		if info.Shard == "shard-1" {
			t.Fatalf("session %s still on the removed shard", key)
		}
	}
	if err := c.RemoveShard("shard-1"); err == nil {
		t.Fatal("removing a removed shard succeeded")
	}
}

// unavailableTransport passes control calls through until failing is
// set, then answers every one 503 without reaching the shard.
type unavailableTransport struct {
	failing atomic.Bool
	refused atomic.Int64
}

func (u *unavailableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !u.failing.Load() {
		return http.DefaultTransport.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	u.refused.Add(1)
	return &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader("unavailable")),
		Request:    req,
	}, nil
}

// TestShutdownCutsRetryBackoff: Shutdown while a janitor call is backing
// off between retries against a 503 shard returns at once instead of
// waiting out the call's retry budget (seconds here).
func TestShutdownCutsRetryBackoff(t *testing.T) {
	tr := &unavailableTransport{}
	c, err := New(Config{
		CheckpointInterval: -1,
		HealthInterval:     -1,
		ReconcileInterval:  5 * time.Millisecond,
		Transport:          tr,
		RetryMax:           6,
		RetryBase:          400 * time.Millisecond,
		RetryCap:           2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownCluster(t, c) })
	if err := c.AddShard("shard-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(serve.CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true}); err != nil {
		t.Fatal(err)
	}
	tr.failing.Store(true)
	// Two refused attempts: the janitor's call is now in its second
	// backoff, with at least 4.4 s of budget left.
	deadline := time.Now().Add(10 * time.Second)
	for tr.refused.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never retried against the failing shard")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v; the retrying call did not stop on shutdown", d)
	}
}
