package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mindful/internal/serve"
)

// TestMigrationDeterminismWall is the wall the tentpole stands on: for
// every decoder kind, a session live-migrated mid-run (at roughly tick
// K of 2K) finishes with frame AND decode digests identical to an
// uninterrupted run. Migration must be invisible to the simulation —
// not approximately, bit-for-bit.
func TestMigrationDeterminismWall(t *testing.T) {
	for _, kind := range []string{"none", "kalman", "wiener", "dnn"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, 2, serve.Config{TickInterval: time.Millisecond})
			cfg := testSessionConfig()
			cfg.Ticks = 40
			if kind != "none" {
				cfg.Decoder = kind
			}
			wantFrame, wantDecode := digests(t, cfg)

			info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			mid := waitKeyTick(t, c, info.Key, cfg.Ticks/2)
			if mid.State == serve.StateDone {
				t.Fatalf("session finished (tick %d) before the migration window", mid.Tick)
			}

			// Move it to whichever shard it is not on.
			target := "shard-0"
			if mid.Shard == target {
				target = "shard-1"
			}
			if err := c.Migrate(info.Key, target); err != nil {
				t.Fatal(err)
			}
			moved, err := c.SessionInfo(info.Key)
			if err != nil {
				t.Fatal(err)
			}
			if moved.Shard != target {
				t.Fatalf("session on %s after migrate, want %s", moved.Shard, target)
			}

			done := waitKeyState(t, c, info.Key, serve.StateDone)
			if done.Digest != wantFrame {
				t.Fatalf("%s: migrated frame digest %s, want uninterrupted %s", kind, done.Digest, wantFrame)
			}
			if kind != "none" && done.DecodeDigest != wantDecode {
				t.Fatalf("%s: migrated decode digest %s, want uninterrupted %s", kind, done.DecodeDigest, wantDecode)
			}
		})
	}
}

// TestMigrateToSameShardIsNoop: migrating a session onto the shard it
// already occupies must not pause, copy, or perturb it.
func TestMigrateToSameShardIsNoop(t *testing.T) {
	c := startCluster(t, 2, serve.Config{})
	info, err := c.CreateSession(serve.CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(info.Key, info.Shard); err != nil {
		t.Fatal(err)
	}
	after, err := c.SessionInfo(info.Key)
	if err != nil {
		t.Fatal(err)
	}
	if after.Shard != info.Shard || after.ID != info.ID {
		t.Fatalf("no-op migrate changed placement %s/%s -> %s/%s",
			info.Shard, info.ID, after.Shard, after.ID)
	}
}

// TestMigrateErrors: unknown keys and unknown targets are rejected
// without touching any session.
func TestMigrateErrors(t *testing.T) {
	c := startCluster(t, 2, serve.Config{})
	if err := c.Migrate("c999999", "shard-0"); err == nil {
		t.Fatal("migrating an unknown key succeeded")
	}
	info, err := c.CreateSession(serve.CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(info.Key, "shard-none"); err == nil {
		t.Fatal("migrating to an unknown shard succeeded")
	}
	after, err := c.SessionInfo(info.Key)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != serve.StatePaused || after.Shard != info.Shard {
		t.Fatalf("failed migrate disturbed the session: %+v", after)
	}
}

// TestConcurrentMigrations: many sessions migrating at once (the
// rebalance shape, but driven from racing goroutines) all land with
// uninterrupted digests. Run under -race this is the cluster's
// coordinator-concurrency wall.
func TestConcurrentMigrations(t *testing.T) {
	const sessions = 8
	c := startCluster(t, 3, serve.Config{TickInterval: time.Millisecond})
	cfg := testSessionConfig()
	cfg.Ticks = 60
	wantFrame, _ := digests(t, cfg)

	keys := make([]string, sessions)
	for i := range keys {
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = info.Key
	}
	for _, key := range keys {
		waitKeyTick(t, c, key, 5)
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i, key := range keys {
		i, key := i, key
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.SessionInfo(key)
			if err != nil {
				errs[i] = err
				return
			}
			target := fmt.Sprintf("shard-%d", (i+1)%3)
			if target == info.Shard {
				target = fmt.Sprintf("shard-%d", (i+2)%3)
			}
			errs[i] = c.Migrate(key, target)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
	}
	for _, key := range keys {
		done := waitKeyState(t, c, key, serve.StateDone)
		if done.Digest != wantFrame {
			t.Fatalf("session %s digest %s after concurrent migration, want %s", key, done.Digest, wantFrame)
		}
	}
}

// TestSubscriberFollowsMigration: a subscriber attached through the
// front tier keeps receiving after its session moves shards by
// re-dialing the front tier — the client-side half of the blackout
// protocol. The migration is driven paused (pause → migrate → re-attach
// → resume): the old shard's stream flushes and closes at the pause
// tick, and the target publishes from the next tick on. A running
// session's migration is gapless too: the target holds what it
// publishes for the first subscriber to re-attach (serve's handoff
// rule).
func TestSubscriberFollowsMigration(t *testing.T) {
	c := startCluster(t, 2, serve.Config{TickInterval: time.Millisecond})
	cfg := testSessionConfig()
	cfg.Ticks = 200
	info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}

	conn, br, err := serve.SubscribeFollow(c.StreamAddr(), info.Key, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var lastOld uint64
	if rec, err := serve.ReadRecord(br); err != nil {
		t.Fatal(err)
	} else {
		lastOld = rec.Tick
	}

	if err := c.PauseSession(info.Key); err != nil {
		t.Fatal(err)
	}
	target := "shard-0"
	if info.Shard == target {
		target = "shard-1"
	}
	if err := c.Migrate(info.Key, target); err != nil {
		t.Fatal(err)
	}

	// Deleting the source copy flushed and closed the old stream; drain
	// it, remembering the last tick it delivered.
	for {
		rec, err := serve.ReadRecord(br)
		if err != nil {
			break
		}
		lastOld = rec.Tick
	}
	conn.Close()

	// Reconnect through the front tier — the key now resolves to the
	// target shard, where the session sits paused — then resume.
	conn2, br2, err := serve.SubscribeFollow(c.StreamAddr(), info.Key, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := c.ResumeSession(info.Key); err != nil {
		t.Fatal(err)
	}
	var firstNew, lastNew uint64
	first := true
	for {
		rec, err := serve.ReadRecord(br2)
		if err != nil {
			break
		}
		if first {
			firstNew, first = rec.Tick, false
		}
		lastNew = rec.Tick
	}
	if first {
		t.Fatal("no records after the migration reconnect")
	}
	if firstNew != lastOld+1 {
		t.Fatalf("stream not gapless across migration: old ended at tick %d, new began at %d", lastOld, firstNew)
	}
	// Record ticks are 0-based: the session's last record is Ticks-1.
	if lastNew != uint64(cfg.Ticks-1) {
		t.Fatalf("stream ended at tick %d, want the session's final tick %d", lastNew, cfg.Ticks-1)
	}
}
