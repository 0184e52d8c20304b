package cluster

import (
	"testing"
	"time"

	"mindful/internal/serve"
)

// TestChaosKillRestore is the kill/restore regression: SIGKILL a shard
// mid-stream (no drain, no warning), restore its sessions on the
// survivors from the front tier's periodic checkpoints, reconnect the
// severed subscriber through the front tier, and prove the recovered
// sessions finish with digests identical to uninterrupted runs —
// checkpoint restore is bit-exact, so even a crash is invisible to the
// simulation's output. The victim is the shard a session was just
// live-migrated onto, so that session is recovered from a checkpoint
// its new owner produced.
func TestChaosKillRestore(t *testing.T) {
	c := startCluster(t, 3, serve.Config{TickInterval: time.Millisecond})
	cfg := testSessionConfig()
	cfg.Ticks = 1000
	wantFrame, _ := digests(t, cfg)

	keys := make([]string, 0, 9)
	for i := 0; i < 9; i++ {
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, info.Key)
	}
	for _, key := range keys {
		waitKeyTick(t, c, key, 10)
	}

	// Live-migrate one session; the shard it lands on is the victim.
	victimKey := keys[0]
	before, err := c.SessionInfo(victimKey)
	if err != nil {
		t.Fatal(err)
	}
	victim := "shard-0"
	if before.Shard == victim {
		victim = "shard-1"
	}
	if err := c.Migrate(victimKey, victim); err != nil {
		t.Fatal(err)
	}
	if moved, err := c.SessionInfo(victimKey); err != nil || moved.Shard != victim || moved.State != serve.StateRunning {
		t.Fatalf("after migrate: %+v, %v; want running on %s", moved, err, victim)
	}

	// The recovery substrate: checkpoint everything after the move.
	if stored := c.CheckpointNow(); stored != len(keys) {
		t.Fatalf("checkpointed %d of %d sessions", stored, len(keys))
	}
	var victimSessions int
	for _, sh := range c.Topology().Shards {
		if sh.ID == victim {
			victimSessions = sh.Sessions
		}
	}

	// A subscriber attached through the front tier, mid-stream on the
	// shard about to die.
	conn, br, err := serve.SubscribeFollow(c.StreamAddr(), victimKey, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := serve.ReadRecord(br); err != nil {
		t.Fatal(err)
	}

	// Split-brain guard: recovery must refuse while the shard is alive.
	if _, _, err := c.RecoverShard(victim); err == nil {
		t.Fatal("RecoverShard succeeded against a live shard")
	}

	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	// The subscriber's stream dies abruptly — an error, not a clean
	// drain.
	for {
		if _, err := serve.ReadRecord(br); err != nil {
			break
		}
	}
	conn.Close()

	recovered, lost, err := c.RecoverShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != victimSessions || lost != 0 {
		t.Fatalf("recovered %d, lost %d; want %d recovered, 0 lost", recovered, lost, victimSessions)
	}

	// Topology: the victim is gone, every session routed, each exactly
	// once (placement counts sum to the session count — no key served by
	// two shards).
	topo := c.Topology()
	if len(topo.Shards) != 2 {
		t.Fatalf("%d shards after recovery, want 2", len(topo.Shards))
	}
	placed := 0
	for _, sh := range topo.Shards {
		if sh.ID == victim {
			t.Fatal("victim still in the topology")
		}
		placed += sh.Sessions
	}
	if topo.Sessions != len(keys) || placed != len(keys) {
		t.Fatalf("%d sessions across shards, topology says %d, want %d exactly once each",
			placed, topo.Sessions, len(keys))
	}

	// The severed subscriber reconnects through the front tier and
	// streams the recovered session to its end.
	conn2, br2, err := serve.SubscribeFollow(c.StreamAddr(), victimKey, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	got := 0
	for {
		if _, err := serve.ReadRecord(br2); err != nil {
			break
		}
		got++
	}
	if got == 0 {
		t.Fatal("no records from the recovered session")
	}

	// Every session — recovered or untouched — finishes bit-identical to
	// an uninterrupted run.
	for _, key := range keys {
		done := waitKeyState(t, c, key, serve.StateDone)
		if done.Digest != wantFrame {
			t.Fatalf("session %s digest %s after chaos, want %s", key, done.Digest, wantFrame)
		}
	}
}

// TestChaosHealthLoopAutoRecovers: with the background loops on, a
// killed shard is detected by the health probes and its sessions are
// restored without any explicit operator call.
func TestChaosHealthLoopAutoRecovers(t *testing.T) {
	c, err := New(Config{
		CheckpointInterval: 20 * time.Millisecond,
		HealthInterval:     20 * time.Millisecond,
		Shard:              serve.Config{TickInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdownCluster(t, c)
	for _, id := range []string{"a", "b", "c"} {
		if err := c.AddShard(id); err != nil {
			t.Fatal(err)
		}
	}

	cfg := testSessionConfig()
	cfg.Ticks = 0 // unbounded: only deletion or death stops these
	keys := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, info.Key)
	}
	// Let the checkpoint loop cover every session at least once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		covered := len(c.ckpts)
		c.mu.Unlock()
		if covered == len(keys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint loop covered %d of %d sessions", covered, len(keys))
		}
		time.Sleep(5 * time.Millisecond)
	}

	var victim string
	for _, sh := range c.Topology().Shards {
		if sh.Sessions > 0 {
			victim = sh.ID
			break
		}
	}
	if victim == "" {
		t.Fatal("no shard hosts a session")
	}
	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}

	// The health loop needs two failed probes; give it a generous
	// window to notice, recover, and re-route everything.
	deadline = time.Now().Add(5 * time.Second)
	for {
		topo := c.Topology()
		if len(topo.Shards) == 2 && topo.Sessions == len(keys) {
			allRouted := true
			for _, key := range keys {
				info, err := c.SessionInfo(key)
				if err != nil || info.Shard == victim || info.State != serve.StateRunning {
					allRouted = false
					break
				}
			}
			if allRouted {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-recovery incomplete: %d shards, %d sessions", len(topo.Shards), topo.Sessions)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Recovered sessions keep making progress.
	before := make(map[string]int)
	for _, key := range keys {
		info, err := c.SessionInfo(key)
		if err != nil {
			t.Fatal(err)
		}
		before[key] = info.Tick
	}
	for _, key := range keys {
		waitKeyTick(t, c, key, before[key]+5)
	}
}

// TestChaosLastShardLoss: killing the only shard loses its sessions —
// and the cluster says so instead of pretending.
func TestChaosLastShardLoss(t *testing.T) {
	c := startCluster(t, 1, serve.Config{TickInterval: time.Millisecond})
	cfg := testSessionConfig()
	cfg.Ticks = 0
	info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	waitKeyTick(t, c, info.Key, 5)
	c.CheckpointNow()
	if err := c.KillShard("shard-0"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RecoverShard("shard-0"); err == nil {
		t.Fatal("recovering onto an empty cluster succeeded")
	}
	topo := c.Topology()
	if len(topo.Shards) != 0 || topo.Sessions != 0 {
		t.Fatalf("topology after total loss: %d shards, %d sessions, want 0/0", len(topo.Shards), topo.Sessions)
	}
}

// TestRecoverShardKeepsRunIntent: a session paused behind the front
// tier's back — the state a failed migration's abort leaves for the
// janitor — is checkpointed paused, and then its shard dies. Recovery
// must restore it in its recorded intent (running), not in the paused
// state the checkpoint observed, or the janitor never resumes it and it
// never finishes.
func TestRecoverShardKeepsRunIntent(t *testing.T) {
	c := startCluster(t, 2, serve.Config{TickInterval: time.Millisecond})
	cfg := testSessionConfig()
	cfg.Ticks = 200
	wantFrame, _ := digests(t, cfg)
	info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	waitKeyTick(t, c, info.Key, 10)

	p, sh, err := c.lookup(info.Key)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.client.pauseSession(sh.CtlBase, p.LocalID); err != nil {
		t.Fatal(err)
	}
	if stored := c.CheckpointNow(); stored != 1 {
		t.Fatalf("checkpointed %d of 1 sessions", stored)
	}
	if err := c.KillShard(sh.ID); err != nil {
		t.Fatal(err)
	}
	if recovered, lost, err := c.RecoverShard(sh.ID); err != nil || recovered != 1 || lost != 0 {
		t.Fatalf("recover: %d recovered, %d lost, %v; want 1, 0, nil", recovered, lost, err)
	}
	c.ReconcileNow()

	done := waitKeyState(t, c, info.Key, serve.StateDone)
	if done.Digest != wantFrame {
		t.Fatalf("recovered session digest %s, want uninterrupted %s", done.Digest, wantFrame)
	}
}
