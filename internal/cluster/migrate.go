package cluster

import (
	"errors"
	"fmt"
	"time"

	"mindful/internal/cluster/store"
	"mindful/internal/cluster/wire"
	"mindful/internal/obs"
	"mindful/internal/serve"
)

// Live migration is a checkpoint transfer with a strict order that
// keeps the split-brain invariant — a session never executes on two
// shards at once:
//
//  1. export on the source pauses the session at its next tick boundary
//     and snapshots it (blob + tick, one lock hold);
//  2. import on the target restores the checkpoint PAUSED and rejects a
//     tick mismatch;
//  3. the routing table flips to the target (new subscribers and MOVED
//     redirects now land there);
//  4. the paused source copy is deleted;
//  5. only then does the target resume.
//
// Deleting the source flushes its subscribers' queues before their
// EOF, and the target holds what it publishes until the first
// subscriber re-attaches (serve's handoff rule), so the first
// subscriber to re-dial the front tier after its EOF reads every tick
// exactly once, as long as no queue overflowed on either side.
//
// Between 1 and 5 nothing executes — that window is the migration
// blackout, measured here (pause→resume wall time) and by the cluster
// harness from the subscriber side (last frame before the move → first
// frame after). If the import fails, the paused source is resumed and
// the migration aborts with the session intact.
//
// The same checkpoint restore primitive, fed by the front tier's
// periodic per-session checkpoints, recovers the sessions of a shard
// that dies without warning: RecoverShard drops the corpse from the
// ring and replays each stored checkpoint onto the key's new owner.
// Recovery refuses to run against a shard that still answers /healthz —
// restoring a session whose original is alive would be the very
// split-brain migration is ordered to prevent.

// ErrMigrating marks a session already mid-migration.
var ErrMigrating = errors.New("cluster: session is already migrating")

// Migrate moves one session to the named shard and waits for it to run
// there. Migrating a session to the shard it is on is a no-op.
func (c *Cluster) Migrate(key, targetID string) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.migrateKey(key, targetID)
}

// migrateKey is the coordinator body. Callers hold topoMu.
func (c *Cluster) migrateKey(key, targetID string) error {
	c.mu.Lock()
	p, ok := c.table[key]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no session %q", key)
	}
	if c.migrating[key] {
		c.mu.Unlock()
		return ErrMigrating
	}
	if p.ShardID == targetID {
		c.mu.Unlock()
		return nil
	}
	src, ok := c.shards[p.ShardID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: session %q placed on missing shard %q", key, p.ShardID)
	}
	dst, ok := c.shards[targetID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no shard %q", targetID)
	}
	c.migrating[key] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.migrating, key)
		c.mu.Unlock()
	}()

	// Migration preserves the session's run state: a deliberately paused
	// session arrives paused; anything else (running, or already done —
	// a done session restores paused at its final tick and the resume
	// immediately re-completes it) is resumed on the target.
	pre, err := c.client.getSession(src.CtlBase, p.LocalID)
	if err != nil {
		c.mMigFailed.Inc()
		return fmt.Errorf("cluster: inspect %s on %s: %w", key, src.ID, err)
	}
	wasRunning := pre.State != serve.StatePaused

	start := time.Now()
	envBuf, err := c.client.exportSession(src.CtlBase, p.LocalID, key)
	if err != nil {
		c.mMigFailed.Inc()
		// The export may have paused the source before its answer was
		// lost; an abort must not leave a should-run session frozen.
		c.abortResume(key, src, p.LocalID, wasRunning, 0)
		return fmt.Errorf("cluster: export %s from %s: %w", key, src.ID, err)
	}
	env, err := wire.Decode(envBuf)
	if err != nil {
		// The source produced a malformed envelope; it is still paused —
		// resume it so the abort leaves the session running where it was.
		c.abortResume(key, src, p.LocalID, wasRunning, 0)
		c.mMigFailed.Inc()
		return fmt.Errorf("cluster: export %s produced bad envelope: %w", key, err)
	}

	info, err := c.client.importSession(dst.CtlBase, envBuf)
	if err != nil {
		c.abortResume(key, src, p.LocalID, wasRunning, env.Tick)
		c.mMigFailed.Inc()
		return fmt.Errorf("cluster: import %s onto %s: %w", key, targetID, err)
	}

	// Routing flips before the source copy disappears: a subscriber that
	// reconnects mid-window is redirected to the target, where the
	// session sits paused until step 5.
	c.mu.Lock()
	c.table[key] = placement{ShardID: targetID, LocalID: info.ID, WantRun: p.WantRun}
	c.mu.Unlock()
	c.storeCkpt(key, storedCkpt{Blob: env.Blob, Tick: int(env.Tick), Running: wasRunning})

	// Delete the paused source BEFORE resuming the target: the one
	// ordering that makes two-shards-running impossible. A failed delete
	// (the source just died, or every retry failed) leaves at most a
	// paused orphan — the janitor's scan deletes it once the shard
	// answers again.
	if err := c.client.deleteSession(src.CtlBase, p.LocalID); err != nil {
		c.event("migrate_orphan", key, src.ID,
			obs.EventAttr{Key: "tick", Val: float64(env.Tick)})
	}
	if wasRunning {
		if err := c.client.resumeSession(dst.CtlBase, info.ID); err != nil {
			// A session exported at its final tick restores already done;
			// anything else leaves the target paused for the janitor.
			if cur, gerr := c.client.getSession(dst.CtlBase, info.ID); gerr != nil || cur.State != serve.StateDone {
				c.mMigFailed.Inc()
				c.event("migrate_stuck", key, "target resume failed; janitor will converge",
					obs.EventAttr{Key: "tick", Val: float64(env.Tick)})
				return fmt.Errorf("cluster: resume %s on %s: %w", key, targetID, err)
			}
		}
	}

	blackoutMs := float64(time.Since(start).Microseconds()) / 1e3
	c.mBlackout.Observe(blackoutMs)
	c.mMigrations.Inc()
	c.event("migrate", key, src.ID+"->"+targetID,
		obs.EventAttr{Key: "tick", Val: float64(env.Tick)},
		obs.EventAttr{Key: "blackout_ms", Val: blackoutMs})
	return nil
}

// abortResume is a failed migration's compensation: the source copy
// may be paused (the export ran) while the control plane wants it
// running. The resume is retried — once through the client's own retry
// budget, then one more full round — and a compensation that still
// fails is handed to the janitor: the key stays routed with
// WantRun intent intact, so the next reconcile pass converges it
// instead of the session staying frozen forever.
func (c *Cluster) abortResume(key string, src *shard, localID string, wasRunning bool, tick uint64) {
	if !wasRunning {
		return // deliberately paused; the abort leaves it as intended
	}
	var err error
	for round := 0; round < 2; round++ {
		if err = c.client.resumeSession(src.CtlBase, localID); err == nil {
			return
		}
	}
	c.event("migrate_stuck", key, "abort resume failed on "+src.ID+"; janitor will converge",
		obs.EventAttr{Key: "tick", Val: float64(tick)})
}

// Rebalance migrates every session whose routing disagrees with the
// current ring onto its ring owner. Returns the number moved.
func (c *Cluster) Rebalance() (int, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	n, err := c.rebalance()
	if err != nil {
		return n, err
	}
	return n, nil
}

// rebalanceLocked is the join/leave path's rebalance (topoMu held).
func (c *Cluster) rebalanceLocked() error {
	_, err := c.rebalance()
	return err
}

func (c *Cluster) rebalance() (int, error) {
	c.mu.Lock()
	ring := c.ring
	moves := make(map[string]string)
	for key, p := range c.table {
		if owner := ring.Owner(key); owner != p.ShardID {
			moves[key] = owner
		}
	}
	c.mu.Unlock()

	keys := make([]string, 0, len(moves))
	for key := range moves {
		keys = append(keys, key)
	}
	sortStrings(keys)

	var firstErr error
	moved := 0
	for _, key := range keys {
		if err := c.migrateKey(key, moves[key]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved++
	}
	c.mRebalances.Inc()
	c.event("rebalance", "", "",
		obs.EventAttr{Key: "moved", Val: float64(moved)},
		obs.EventAttr{Key: "sessions", Val: float64(len(keys))})
	return moved, firstErr
}

// CheckpointNow snapshots every routed session into the front tier's
// recovery store — the state a dead shard's sessions restart from.
// Sessions that cannot snapshot right now (mid-migration, failed) are
// skipped; their previous checkpoint stands.
func (c *Cluster) CheckpointNow() int {
	c.mu.Lock()
	type target struct {
		key     string
		localID string
		base    string
	}
	targets := make([]target, 0, len(c.table))
	for key, p := range c.table {
		if c.migrating[key] {
			continue
		}
		if sh, ok := c.shards[p.ShardID]; ok {
			targets = append(targets, target{key, p.LocalID, sh.CtlBase})
		}
	}
	c.mu.Unlock()

	stored := 0
	for _, t := range targets {
		blob, info, err := c.client.checkpointSession(t.base, t.localID)
		if err != nil {
			continue
		}
		ck := storedCkpt{
			Blob: blob,
			Tick: info.Tick,
			// Same rule as migration: only a deliberate pause survives
			// recovery; running and done sessions restart running (a
			// done session re-completes on its first resumed step).
			Running: info.State != serve.StatePaused,
		}
		c.mu.Lock()
		// The placement may have moved while we snapshotted; only store
		// a checkpoint that still describes the routed copy.
		ok := false
		if p, has := c.table[t.key]; has && p.LocalID == t.localID {
			c.ckpts[t.key] = ck
			ok = true
			stored++
		}
		c.mu.Unlock()
		if ok && c.store != nil {
			c.store.Put(t.key, store.Record{Blob: ck.Blob, Tick: ck.Tick, Running: ck.Running})
		}
	}
	return stored
}

// checkpointLoop runs CheckpointNow on the configured cadence.
func (c *Cluster) checkpointLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CheckpointNow()
		}
	}
}

// healthLoop probes every shard's /healthz and recovers the ones that
// stop answering. Two consecutive failed probes are required so one
// dropped connection cannot trigger a recovery storm.
func (c *Cluster) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	failed := make(map[string]int)
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			bases := make(map[string]string, len(c.shards))
			for id, sh := range c.shards {
				bases[id] = sh.CtlBase
			}
			c.mu.Unlock()
			for id, base := range bases {
				if c.client.probeAlive(base) {
					delete(failed, id)
					continue
				}
				failed[id]++
				if failed[id] >= 2 {
					delete(failed, id)
					c.RecoverShard(id)
				}
			}
		}
	}
}

// RecoverShard declares a shard dead and restores its sessions on the
// survivors from the front tier's stored checkpoints. It refuses while
// the shard still answers /healthz: recovering a live shard would run
// its sessions twice. Returns recovered and lost counts.
func (c *Cluster) RecoverShard(id string) (recovered, lost int, err error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	c.mu.Lock()
	sh, ok := c.shards[id]
	c.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("cluster: no shard %q", id)
	}
	// Confirm death with multiple probes: under injected network chaos a
	// single failed probe can be the network lying, and recovering a live
	// shard would run its sessions twice. Any success refuses recovery.
	alive := false
	for i := 0; i < 3 && !alive; i++ {
		alive = c.client.probeAlive(sh.CtlBase)
	}
	if alive {
		return 0, 0, fmt.Errorf("cluster: shard %q is alive; refusing recovery (split-brain guard)", id)
	}

	// Drop the corpse from the ring first so restored keys hash onto
	// survivors only.
	c.mu.Lock()
	ids := make([]string, 0, len(c.shards)-1)
	for sid := range c.shards {
		if sid != id {
			ids = append(ids, sid)
		}
	}
	ring, rerr := NewRing(ids, c.cfg.VirtualNodes)
	if rerr != nil {
		c.mu.Unlock()
		return 0, 0, rerr
	}
	c.ring = ring
	delete(c.shards, id)
	if c.mShards != nil {
		c.mShards.Add(-1)
	}
	// A routed orphan restarts in its recorded run intent, not in the
	// state its checkpoint observed: a session a failed migration left
	// paused for the janitor still wants to run.
	type orphan struct {
		key     string
		ckpt    storedCkpt
		has     bool
		wantRun bool
	}
	orphans := make([]orphan, 0)
	for key, p := range c.table {
		if p.ShardID != id {
			continue
		}
		ck, has := c.ckpts[key]
		orphans = append(orphans, orphan{key, ck, has, p.WantRun})
	}
	// A restarted front tier reloads its durable checkpoints but not the
	// memory-only routing table, so the crashed generation's sessions
	// show up here as stored checkpoints with no routing entry. Declaring
	// a shard dead is the signal that the old generation is gone: adopt
	// every unrouted checkpoint alongside the shard's routed orphans. In
	// steady state the unrouted set is empty (forget drops a key's
	// checkpoint with its routing entry), so this only fires after a
	// restart. A surviving shard may still host the pre-crash copy of an
	// adopted key; that copy is unaddressable without the old table and
	// the janitor's orphan scan removes it.
	for key, ck := range c.ckpts {
		if _, routed := c.table[key]; !routed {
			orphans = append(orphans, orphan{key, ck, true, ck.Running})
		}
	}
	c.mu.Unlock()

	c.mShardDown.Inc()
	c.event("shard_down", id, "",
		obs.EventAttr{Key: "orphans", Val: float64(len(orphans))},
		obs.EventAttr{Key: "shards", Val: float64(ring.Size())})

	if ring.Size() == 0 {
		for _, o := range orphans {
			c.forget(o.key)
			c.mLost.Inc()
		}
		return 0, len(orphans), fmt.Errorf("cluster: shard %q was the last member; %d sessions lost", id, len(orphans))
	}

	for _, o := range orphans {
		if !o.has {
			c.forget(o.key)
			c.mLost.Inc()
			c.event("session_lost", o.key, id)
			lost++
			continue
		}
		owner := ring.Owner(o.key)
		c.mu.Lock()
		dst := c.shards[owner]
		c.mu.Unlock()
		info, err := c.client.restoreSession(dst.CtlBase, o.ckpt.Blob, true)
		if err != nil {
			c.forget(o.key)
			c.mLost.Inc()
			c.event("session_lost", o.key, "restore failed on "+owner)
			lost++
			continue
		}
		c.mu.Lock()
		c.table[o.key] = placement{ShardID: owner, LocalID: info.ID, WantRun: o.wantRun}
		c.mu.Unlock()
		if o.wantRun {
			if err := c.client.resumeSession(dst.CtlBase, info.ID); err != nil {
				if cur, gerr := c.client.getSession(dst.CtlBase, info.ID); gerr != nil || cur.State != serve.StateDone {
					// The copy is restored and routed, just paused: count it
					// recovered and leave the resume to the janitor instead
					// of declaring it lost.
					c.event("session_stuck", o.key, "resume failed on "+owner)
				}
			}
		}
		c.mRecovered.Inc()
		c.event("session_recover", o.key, id+"->"+owner,
			obs.EventAttr{Key: "tick", Val: float64(o.ckpt.Tick)})
		recovered++
	}
	return recovered, lost, nil
}
