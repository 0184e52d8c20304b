// Package cluster is the multi-gateway front tier: one process that
// consistent-hashes session keys across N serve gateways (shards),
// proxies the JSON/HTTP control plane to the owning shard, redirects
// TCP subscribers there, and moves live sessions between shards by
// checkpoint transfer — pause on the source, snapshot, restore paused
// on the target, flip the routing table, delete the source copy, and
// resume. Because the checkpoint codec round-trips sessions
// bit-identically, a migrated session's digests equal an uninterrupted
// run's: live migration is invisible to the simulation.
//
// The same primitive powers elasticity and failure recovery. A joining
// shard steals only the keys the ring now assigns it (drain-and-
// rebalance); a leaving shard is drained (its /readyz answers 503)
// and its sessions migrate off before it is removed; a shard that dies
// without warning is detected by health probes and its sessions are
// restored on the survivors from the front tier's periodic checkpoints.
// The routing table maps every key to exactly one shard at all times —
// the split-brain guard the chaos tests pin.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"mindful/internal/cluster/store"
	"mindful/internal/obs"
	"mindful/internal/serve"
)

// Defaults for the zero Config values.
const (
	// DefaultCheckpointInterval is the periodic per-session checkpoint
	// cadence backing kill recovery.
	DefaultCheckpointInterval = 2 * time.Second
	// DefaultHealthInterval is the shard health-probe cadence.
	DefaultHealthInterval = time.Second
	// DefaultProbeTimeout bounds one health probe.
	DefaultProbeTimeout = 500 * time.Millisecond
	// DefaultReconcileInterval is the janitor cadence.
	DefaultReconcileInterval = 2 * time.Second
)

// Config describes one front tier.
type Config struct {
	// ControlAddr is the front tier's HTTP control-plane listen address
	// (e.g. "127.0.0.1:0").
	ControlAddr string
	// StreamAddr is the front tier's TCP listen address; subscribers
	// connect here and are redirected (MOVED) to the owning shard.
	StreamAddr string
	// VirtualNodes is the per-shard ring point count (0 = default 128).
	VirtualNodes int
	// CheckpointInterval is the periodic checkpoint cadence for kill
	// recovery (0 = default; negative disables the loop — tests drive
	// CheckpointNow explicitly).
	CheckpointInterval time.Duration
	// HealthInterval is the shard probe cadence (0 = default; negative
	// disables the loop — tests drive RecoverShard explicitly).
	HealthInterval time.Duration
	// ReconcileInterval is the janitor cadence: each pass converges
	// stuck migration states (paused source with no routed copy,
	// orphaned target copy, routing entry at a dead shard) back to
	// exactly one running copy per key (0 = default; negative disables
	// the loop — tests drive ReconcileNow explicitly).
	ReconcileInterval time.Duration
	// StoreDir, when set, backs the checkpoint map with a durable
	// on-disk store (internal/cluster/store): every stored checkpoint
	// is also framed to disk, and New reloads the directory so a
	// restarted front tier can still recover a dead shard's sessions.
	StoreDir string
	// Transport optionally replaces the control-plane HTTP transport —
	// the chaos tests' injection point.
	Transport http.RoundTripper
	// ProbeTransport optionally replaces the health/readiness probe
	// transport (separate so probe chaos can be gated independently).
	ProbeTransport http.RoundTripper
	// RetryMax is the retry budget per idempotent control call
	// (0 = default; negative disables retries).
	RetryMax int
	// RetryBase and RetryCap bound the exponential backoff between
	// retries (0 = defaults).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the deterministic backoff jitter.
	RetrySeed int64
	// Shard is the template for self-hosted shards: listen addresses
	// are overridden to loopback ephemeral ports, everything else
	// (queue depth, tick interval, default decoder, observer) applies
	// to every shard this front tier hosts.
	Shard serve.Config
	// Observer optionally collects cluster metrics and events.
	Observer *obs.Observer
}

// placement is one session's current home. WantRun is the control
// plane's intent — whether the session should be executing — recorded
// at create/pause/resume/migrate time so the janitor can tell a
// deliberately paused session from one a failed migration stranded.
type placement struct {
	ShardID string
	LocalID string
	WantRun bool
}

// storedCkpt is one session's most recent checkpoint — the recovery
// state a dead shard's sessions restart from. Running records whether
// the session was executing when snapshotted, so recovery restores
// deliberately paused sessions paused.
type storedCkpt struct {
	Blob    []byte
	Tick    int
	Running bool
}

// shard is one gateway in the cluster, self-hosted or attached.
type shard struct {
	ID         string
	CtlBase    string // control-plane base URL, e.g. "http://127.0.0.1:7600"
	StreamAddr string
	srv        *serve.Server // non-nil when self-hosted in this process
}

// Cluster is one running front tier.
type Cluster struct {
	cfg Config

	// topoMu serializes whole topology operations (join, leave,
	// rebalance, recovery) against each other; mu guards the routing
	// state with short holds and is never held across a network call.
	topoMu sync.Mutex

	mu        sync.Mutex
	shards    map[string]*shard
	ring      *Ring
	table     map[string]placement
	ckpts     map[string]storedCkpt
	migrating map[string]bool
	nextKey   uint64
	closed    bool

	// orphanSuspects holds "shard/localID" copies seen unrouted on the
	// previous janitor pass; only a second consecutive sighting deletes.
	// Guarded by topoMu (only the janitor touches it).
	orphanSuspects map[string]bool

	ctlLn   net.Listener
	strLn   net.Listener
	httpSrv *http.Server
	wg      sync.WaitGroup
	stop    chan struct{}

	client *shardClient
	store  *store.Store // nil without Config.StoreDir

	events *obs.EventLog

	mShards     *obs.Gauge
	mRouted     *obs.Gauge
	mCreated    *obs.Counter
	mMigrations *obs.Counter
	mMigFailed  *obs.Counter
	mRebalances *obs.Counter
	mShardDown  *obs.Counter
	mRecovered  *obs.Counter
	mLost       *obs.Counter
	mRedirects  *obs.Counter
	mRetries    *obs.Counter
	mGiveups    *obs.Counter
	mReconciles *obs.Counter
	mRepaired   *obs.Counter
	mBlackout   *obs.Histogram
}

// New returns an unstarted front tier with no shards.
func New(cfg Config) (*Cluster, error) {
	if cfg.ControlAddr == "" {
		cfg.ControlAddr = "127.0.0.1:0"
	}
	if cfg.StreamAddr == "" {
		cfg.StreamAddr = "127.0.0.1:0"
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.ReconcileInterval == 0 {
		cfg.ReconcileInterval = DefaultReconcileInterval
	}
	ring, err := NewRing(nil, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		shards:    make(map[string]*shard),
		ring:      ring,
		table:     make(map[string]placement),
		ckpts:     make(map[string]storedCkpt),
		migrating: make(map[string]bool),
		stop:      make(chan struct{}),

		orphanSuspects: make(map[string]bool),
		// Blackout spans sub-millisecond loopback flips to multi-second
		// stalls: 0.1 ms .. ~1.6 min exponential buckets.
		mBlackout: obs.NewHistogram(obs.ExpBuckets(0.1, 2, 20)),
	}
	if o := cfg.Observer; o != nil {
		c.events = o.Events
	}
	if o := cfg.Observer; o != nil && o.Metrics != nil {
		m := o.Metrics
		c.mShards = m.Gauge("cluster_shards_active")
		c.mRouted = m.Gauge("cluster_sessions_routed")
		c.mCreated = m.Counter("cluster_sessions_created_total")
		c.mMigrations = m.Counter("cluster_migrations_total")
		c.mMigFailed = m.Counter("cluster_migration_failures_total")
		c.mRebalances = m.Counter("cluster_rebalances_total")
		c.mShardDown = m.Counter("cluster_shard_down_total")
		c.mRecovered = m.Counter("cluster_sessions_recovered_total")
		c.mLost = m.Counter("cluster_sessions_lost_total")
		c.mRedirects = m.Counter("cluster_redirects_total")
		c.mRetries = m.Counter("cluster_ctl_retries_total")
		c.mGiveups = m.Counter("cluster_ctl_giveups_total")
		c.mReconciles = m.Counter("cluster_reconcile_passes_total")
		c.mRepaired = m.Counter("cluster_reconcile_repairs_total")
		m.Help("cluster_shards_active", "Gateways currently in the ring.")
		m.Help("cluster_sessions_routed", "Sessions in the routing table.")
		m.Help("cluster_sessions_created_total", "Sessions created through the front tier.")
		m.Help("cluster_migrations_total", "Live migrations completed.")
		m.Help("cluster_migration_failures_total", "Live migrations aborted.")
		m.Help("cluster_rebalances_total", "Rebalance passes run.")
		m.Help("cluster_shard_down_total", "Shards declared dead and removed.")
		m.Help("cluster_sessions_recovered_total", "Sessions restored from checkpoints after a shard death.")
		m.Help("cluster_sessions_lost_total", "Sessions lost with a dead shard (no checkpoint).")
		m.Help("cluster_redirects_total", "Data-plane MOVED redirects answered.")
		m.Help("cluster_ctl_retries_total", "Control-plane call retries after transient failures.")
		m.Help("cluster_ctl_giveups_total", "Control-plane calls that exhausted their retry budget.")
		m.Help("cluster_reconcile_passes_total", "Janitor reconciliation passes run.")
		m.Help("cluster_reconcile_repairs_total", "Stuck migration states converged by the janitor.")
	}
	c.client = newShardClient(cfg, c.stop, c.mRetries, c.mGiveups)
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("cluster: checkpoint store: %w", err)
		}
		c.store = st
		// A restarted front tier reloads every durable checkpoint: the
		// routing table is memory-only, but the recovery state survives,
		// so RecoverShard can still resurrect a dead shard's sessions.
		recs, err := st.LoadAll()
		if err != nil {
			return nil, fmt.Errorf("cluster: checkpoint store: %w", err)
		}
		for key, rec := range recs {
			c.ckpts[key] = storedCkpt{Blob: rec.Blob, Tick: rec.Tick, Running: rec.Running}
			// Keys minted by this generation must not collide with the
			// crashed generation's: advance past every stored key.
			var n uint64
			if _, err := fmt.Sscanf(key, "c%d", &n); err == nil && n > c.nextKey {
				c.nextKey = n
			}
		}
	}
	return c, nil
}

// event records one flight-recorder entry (nil-safe without an
// observer).
func (c *Cluster) event(typ, subject, detail string, attrs ...obs.EventAttr) {
	c.events.Record(typ, subject, detail, attrs...)
}

// Start binds the front tier's planes and begins the checkpoint and
// health loops (when their intervals are positive).
func (c *Cluster) Start() error {
	ctl, err := net.Listen("tcp", c.cfg.ControlAddr)
	if err != nil {
		return fmt.Errorf("cluster: control plane: %w", err)
	}
	str, err := net.Listen("tcp", c.cfg.StreamAddr)
	if err != nil {
		ctl.Close()
		return fmt.Errorf("cluster: stream plane: %w", err)
	}
	c.ctlLn, c.strLn = ctl, str
	c.httpSrv = &http.Server{Handler: c.controlMux()}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.httpSrv.Serve(ctl)
	}()
	go func() {
		defer c.wg.Done()
		for {
			conn, err := str.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go c.serveRedirect(conn)
		}
	}()
	if c.cfg.CheckpointInterval > 0 {
		c.wg.Add(1)
		go c.checkpointLoop()
	}
	if c.cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	if c.cfg.ReconcileInterval > 0 {
		c.wg.Add(1)
		go c.janitorLoop()
	}
	return nil
}

// ControlAddr returns the bound front-tier control-plane address.
func (c *Cluster) ControlAddr() string { return c.ctlLn.Addr().String() }

// StreamAddr returns the bound front-tier data-plane address.
func (c *Cluster) StreamAddr() string { return c.strLn.Addr().String() }

// AddShard self-hosts a new gateway on loopback ephemeral ports under
// the given ID, adds it to the ring and rebalances: the joiner steals
// exactly the sessions the ring now assigns it.
func (c *Cluster) AddShard(id string) error {
	scfg := c.cfg.Shard
	scfg.ControlAddr = "127.0.0.1:0"
	scfg.StreamAddr = "127.0.0.1:0"
	scfg.Redirect = c.Resolve
	srv, err := serve.New(scfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	if err := c.JoinShard(id, "http://"+srv.ControlAddr(), srv.StreamAddr(), srv); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		return err
	}
	return nil
}

// AttachShard adds an externally running gateway (its control base URL
// and stream address) to the ring and rebalances onto it.
func (c *Cluster) AttachShard(id, ctlBase, streamAddr string) error {
	return c.JoinShard(id, ctlBase, streamAddr, nil)
}

// JoinShard is the shared join path. srv is non-nil for self-hosted
// shards (enables Kill-based chaos testing and graceful shutdown).
func (c *Cluster) JoinShard(id, ctlBase, streamAddr string, srv *serve.Server) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("cluster: shutting down")
	}
	if _, ok := c.shards[id]; ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: shard %q already present", id)
	}
	ids := make([]string, 0, len(c.shards)+1)
	for sid := range c.shards {
		ids = append(ids, sid)
	}
	ids = append(ids, id)
	ring, err := NewRing(ids, c.cfg.VirtualNodes)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.shards[id] = &shard{ID: id, CtlBase: ctlBase, StreamAddr: streamAddr, srv: srv}
	c.ring = ring
	if c.mShards != nil {
		c.mShards.Add(1)
	}
	c.mu.Unlock()

	c.event("shard_join", id, streamAddr,
		obs.EventAttr{Key: "shards", Val: float64(ring.Size())})
	return c.rebalanceLocked()
}

// RemoveShard drains a shard for leave: mark it draining (/readyz goes
// 503), rebuild the ring without it, migrate every hosted session to
// its new owner, then drop the member. The shard process itself is the
// caller's to stop; self-hosted shards are shut down gracefully.
func (c *Cluster) RemoveShard(id string) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	c.mu.Lock()
	sh, ok := c.shards[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no shard %q", id)
	}
	if len(c.shards) < 2 && c.sessionsOnLocked(id) > 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove last shard %q while it hosts sessions", id)
	}
	c.mu.Unlock()

	// Drain first: stop new placements while the sessions move off.
	if err := c.client.drainShard(sh.CtlBase, true); err != nil {
		return fmt.Errorf("cluster: drain %s: %w", id, err)
	}

	c.mu.Lock()
	ids := make([]string, 0, len(c.shards)-1)
	for sid := range c.shards {
		if sid != id {
			ids = append(ids, sid)
		}
	}
	ring, err := NewRing(ids, c.cfg.VirtualNodes)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.ring = ring
	c.mu.Unlock()

	if err := c.rebalanceLocked(); err != nil {
		return err
	}

	c.mu.Lock()
	delete(c.shards, id)
	if c.mShards != nil {
		c.mShards.Add(-1)
	}
	c.mu.Unlock()
	c.event("shard_leave", id, "",
		obs.EventAttr{Key: "shards", Val: float64(ring.Size())})

	if sh.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return sh.srv.Shutdown(ctx)
	}
	return nil
}

// KillShard kills a self-hosted shard the way SIGKILL would — no
// drain, no snapshots, subscribers severed — without telling the
// cluster, which must notice via health probes (or an explicit
// RecoverShard). The chaos tests' murder weapon.
func (c *Cluster) KillShard(id string) error {
	c.mu.Lock()
	sh, ok := c.shards[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no shard %q", id)
	}
	if sh.srv == nil {
		return fmt.Errorf("cluster: shard %q is not self-hosted", id)
	}
	sh.srv.Kill()
	return nil
}

// sessionsOnLocked counts table entries placed on a shard. Callers
// hold mu.
func (c *Cluster) sessionsOnLocked(shardID string) int {
	n := 0
	for _, p := range c.table {
		if p.ShardID == shardID {
			n++
		}
	}
	return n
}

// Resolve maps a cluster session key to its owning shard's stream
// address and local session ID — the serve.Config.Redirect hook every
// self-hosted shard and the front tier's own data plane share.
func (c *Cluster) Resolve(key string) (addr, localID string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.table[key]
	if !ok {
		return "", "", false
	}
	sh, ok := c.shards[p.ShardID]
	if !ok {
		return "", "", false
	}
	return sh.StreamAddr, p.LocalID, true
}

// lookup returns a session's placement and shard.
func (c *Cluster) lookup(key string) (placement, *shard, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.table[key]
	if !ok {
		return placement{}, nil, fmt.Errorf("cluster: no session %q", key)
	}
	sh, ok := c.shards[p.ShardID]
	if !ok {
		return placement{}, nil, fmt.Errorf("cluster: session %q placed on missing shard %q", key, p.ShardID)
	}
	return p, sh, nil
}

// CreateSession places a new session on its ring owner and records the
// routing entry.
func (c *Cluster) CreateSession(req serve.CreateRequest) (Info, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Info{}, errors.New("cluster: shutting down")
	}
	if c.ring.Size() == 0 {
		c.mu.Unlock()
		return Info{}, errors.New("cluster: no shards")
	}
	c.nextKey++
	key := fmt.Sprintf("c%06d", c.nextKey)
	owner := c.ring.Owner(key)
	sh := c.shards[owner]
	c.mu.Unlock()

	info, err := c.client.createSession(sh.CtlBase, req)
	if err != nil {
		return Info{}, err
	}

	c.mu.Lock()
	c.table[key] = placement{ShardID: owner, LocalID: info.ID, WantRun: !req.StartPaused}
	if c.mRouted != nil {
		c.mRouted.Add(1)
	}
	c.mu.Unlock()
	c.mCreated.Inc()
	c.event("cluster_create", key, owner,
		obs.EventAttr{Key: "ticks", Val: float64(req.Ticks)})
	return Info{Key: key, Shard: owner, SessionInfo: info}, nil
}

// DeleteSession removes a session from its shard and the table.
func (c *Cluster) DeleteSession(key string) error {
	p, sh, err := c.lookup(key)
	if err != nil {
		return err
	}
	if err := c.client.deleteSession(sh.CtlBase, p.LocalID); err != nil {
		return err
	}
	c.forget(key)
	c.event("cluster_delete", key, p.ShardID)
	return nil
}

// forget drops a session's routing entry and stored checkpoint (the
// durable copy too).
func (c *Cluster) forget(key string) {
	c.mu.Lock()
	if _, ok := c.table[key]; ok {
		delete(c.table, key)
		if c.mRouted != nil {
			c.mRouted.Add(-1)
		}
	}
	delete(c.ckpts, key)
	c.mu.Unlock()
	if c.store != nil {
		c.store.Delete(key)
	}
}

// storeCkpt records a session's latest checkpoint in memory and, when
// a store is configured, durably on disk.
func (c *Cluster) storeCkpt(key string, ck storedCkpt) {
	c.mu.Lock()
	c.ckpts[key] = ck
	c.mu.Unlock()
	if c.store != nil {
		c.store.Put(key, store.Record{Blob: ck.Blob, Tick: ck.Tick, Running: ck.Running})
	}
}

// setWantRun records the control plane's run intent for a key.
func (c *Cluster) setWantRun(key string, v bool) {
	c.mu.Lock()
	if p, ok := c.table[key]; ok {
		p.WantRun = v
		c.table[key] = p
	}
	c.mu.Unlock()
}

// PauseSession suspends a session's tick loop via its shard.
func (c *Cluster) PauseSession(key string) error {
	p, sh, err := c.lookup(key)
	if err != nil {
		return err
	}
	if err := c.client.pauseSession(sh.CtlBase, p.LocalID); err != nil {
		return err
	}
	c.setWantRun(key, false)
	return nil
}

// ResumeSession releases a paused session via its shard.
func (c *Cluster) ResumeSession(key string) error {
	p, sh, err := c.lookup(key)
	if err != nil {
		return err
	}
	if err := c.client.resumeSession(sh.CtlBase, p.LocalID); err != nil {
		return err
	}
	c.setWantRun(key, true)
	return nil
}

// Info is the front tier's view of one session: the cluster key and
// owning shard wrapped around the shard's own info.
type Info struct {
	Key   string `json:"key"`
	Shard string `json:"shard"`
	serve.SessionInfo
}

// SessionInfo fetches one session's current info from its shard.
func (c *Cluster) SessionInfo(key string) (Info, error) {
	p, sh, err := c.lookup(key)
	if err != nil {
		return Info{}, err
	}
	info, err := c.client.getSession(sh.CtlBase, p.LocalID)
	if err != nil {
		return Info{}, err
	}
	return Info{Key: key, Shard: p.ShardID, SessionInfo: info}, nil
}

// Sessions lists every routed session's info, ordered by key.
func (c *Cluster) Sessions() ([]Info, error) {
	c.mu.Lock()
	keys := make([]string, 0, len(c.table))
	for key := range c.table {
		keys = append(keys, key)
	}
	c.mu.Unlock()
	sortStrings(keys)
	infos := make([]Info, 0, len(keys))
	for _, key := range keys {
		info, err := c.SessionInfo(key)
		if err != nil {
			// A session can vanish between the snapshot and the fetch
			// (deleted, or its shard died); skip rather than fail the list.
			continue
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// ShardInfo is the control plane's view of one shard.
type ShardInfo struct {
	ID         string `json:"id"`
	CtlBase    string `json:"ctl"`
	StreamAddr string `json:"stream"`
	SelfHosted bool   `json:"self_hosted"`
	Ready      bool   `json:"ready"`
	Sessions   int    `json:"sessions"`
}

// ClusterInfo is the control plane's topology view.
type ClusterInfo struct {
	Shards   []ShardInfo `json:"shards"`
	Sessions int         `json:"sessions"`
}

// Topology reports the shard set with liveness and placement counts.
func (c *Cluster) Topology() ClusterInfo {
	c.mu.Lock()
	shards := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, sh)
	}
	sessions := len(c.table)
	counts := make(map[string]int, len(shards))
	for _, p := range c.table {
		counts[p.ShardID]++
	}
	c.mu.Unlock()

	info := ClusterInfo{Sessions: sessions}
	for _, sh := range shards {
		info.Shards = append(info.Shards, ShardInfo{
			ID:         sh.ID,
			CtlBase:    sh.CtlBase,
			StreamAddr: sh.StreamAddr,
			SelfHosted: sh.srv != nil,
			Ready:      c.client.probeReady(sh.CtlBase),
			Sessions:   counts[sh.ID],
		})
	}
	sortShardInfos(info.Shards)
	return info
}

// Shutdown stops the loops, shuts the front tier's planes, and
// gracefully shuts down every self-hosted shard.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	shards := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, sh)
	}
	c.mu.Unlock()

	close(c.stop)
	c.strLn.Close()
	httpErr := c.httpSrv.Shutdown(ctx)

	var shardErr error
	for _, sh := range shards {
		if sh.srv != nil {
			if err := sh.srv.Shutdown(ctx); err != nil && shardErr == nil {
				shardErr = err
			}
		}
	}

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if httpErr != nil {
		return httpErr
	}
	return shardErr
}

// sortStrings is an allocation-free insertion sort for short key lists.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortShardInfos(s []ShardInfo) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
