package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mindful/internal/chaosnet"
	"mindful/internal/obs"
	"mindful/internal/serve"
	"mindful/internal/serve/checkpoint"
)

// The chaos sweep is the cluster's robustness experiment and its only
// load driver. Each point boots a front tier with N self-hosted shards,
// spreads sessions across the ring, attaches every subscriber through
// the front tier's redirect plane, and then injects live migrations and
// a shard kill with checkpoint recovery while the subscribers keep
// reading. The points differ only in how hostile the control plane is:
// a seeded chaosnet transport scaled by the point's intensity. The
// seeded transport gives common random numbers across the ladder —
// intensity 0.5 injects a strict subset of intensity 1.0's faults — so
// the survival, migration-success, retry and delivery-p99 curves are
// monotone by construction and a regression shows up as a shape change,
// not sampling noise. Intensity 0 takes the exact fault-free path.
//
// At every point each surviving session's served digest must equal an
// uninterrupted in-process run of the same seed; a mismatch fails the
// sweep.

// SweepConfig describes the scenario every point of a sweep runs.
type SweepConfig struct {
	// Shards is the self-hosted gateway count.
	Shards int
	// Sessions, SubsPerSession and Ticks set the fan-out and run length.
	Sessions       int
	SubsPerSession int
	Ticks          int
	// TickInterval paces the shards (the disruption windows need real
	// time to land mid-run; 0 = 1ms).
	TickInterval time.Duration

	// Session is the per-session pipeline configuration (decoder
	// included); the seed is offset per session so no two sessions share
	// streams.
	Session checkpoint.SessionConfig

	// Migrations is how many sessions to live-migrate mid-run.
	Migrations int
	// Kill, when set, SIGKILLs one shard mid-run and recovers its
	// sessions from the front tier's checkpoints.
	Kill bool

	// Observer, when set, instruments the self-hosted front tier
	// (cluster_* metrics, migrate/shard_down narration).
	Observer *obs.Observer
}

// DefaultSweepConfig returns the BENCH_chaos.json scenario: 3 shards,
// 8 sessions × 1 subscriber × 120 frames of a 32-channel 16-QAM
// implant, 2 live migrations and one shard kill mid-run.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Shards:         3,
		Sessions:       8,
		SubsPerSession: 1,
		Ticks:          120,
		Migrations:     2,
		Kill:           true,
		Session: checkpoint.SessionConfig{
			Channels:     32,
			SampleRateHz: 2000,
			SampleBits:   10,
			QAMBits:      4,
			EbN0dB:       12,
			Seed:         1,
		},
	}
}

// DefaultSweepIntensities is the standard ladder.
func DefaultSweepIntensities() []float64 { return []float64{0, 0.5, 1, 2} }

// SweepPoint is one intensity's run.
type SweepPoint struct {
	Intensity      float64 `json:"intensity"`
	Records        int64   `json:"records_received"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	Killed          string  `json:"killed_shard,omitempty"`
	Recovered       int     `json:"sessions_recovered,omitempty"`
	Lost            int     `json:"sessions_lost,omitempty"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	// DigestsVerified counts the surviving sessions whose served digest
	// matched an uninterrupted run (all of them, or the sweep fails).
	DigestsVerified int `json:"digests_verified"`

	// Delivery latency across every subscriber (publish → read).
	P50Ms float64 `json:"p50_delivery_latency_ms"`
	P99Ms float64 `json:"p99_delivery_latency_ms"`

	ChaosStats          chaosnet.Stats `json:"chaos_faults"`
	MigrationsAttempted int            `json:"migrations_attempted"`
	MigrationsFailed    int            `json:"migrations_failed"`
	// SurvivalRate is finished-or-reconciled sessions over created ones.
	SurvivalRate float64 `json:"session_survival_rate"`
	// MigrationSuccessRate counts migrations that completed first-try
	// (reconciled aborts are survival, not migration success).
	MigrationSuccessRate float64 `json:"migration_success_rate"`
	Retries              int64   `json:"ctl_retries"`
	Giveups              int64   `json:"ctl_giveups"`
	ReconcilePasses      int64   `json:"reconcile_passes"`
	ReconcileRepairs     int64   `json:"reconcile_repairs"`
}

// ChaosSweep is the BENCH_chaos.json document.
type ChaosSweep struct {
	Seed           int64            `json:"chaos_seed"`
	Profile        chaosnet.Profile `json:"profile"`
	Shards         int              `json:"shards"`
	Sessions       int              `json:"sessions"`
	SubsPerSession int              `json:"subs_per_session"`
	Ticks          int              `json:"ticks"`
	Migrations     int              `json:"migrations"`
	Kill           bool             `json:"kill"`
	Points         []SweepPoint     `json:"points"`
	TotalFaults    int64            `json:"total_faults_injected"`
}

// RunChaosSweep runs the scenario once per intensity (nil = the default
// ladder) under one chaos seed and collects the curves. Everything but
// the intensity is held fixed, so it is the only moving variable.
func RunChaosSweep(cfg SweepConfig, intensities []float64, seed int64) (*ChaosSweep, error) {
	if cfg.Shards < 1 || cfg.Sessions < 1 || cfg.SubsPerSession < 0 || cfg.Ticks < 1 {
		return nil, errors.New("cluster: sweep config needs shards ≥ 1, sessions ≥ 1, subs ≥ 0, ticks ≥ 1")
	}
	if (cfg.Migrations > 0 || cfg.Kill) && cfg.Shards < 2 {
		return nil, errors.New("cluster: migrations and kill/recovery need at least 2 shards")
	}
	if len(intensities) == 0 {
		intensities = DefaultSweepIntensities()
	}
	sweep := &ChaosSweep{
		Seed:           seed,
		Profile:        chaosnet.DefaultProfile(),
		Shards:         cfg.Shards,
		Sessions:       cfg.Sessions,
		SubsPerSession: cfg.SubsPerSession,
		Ticks:          cfg.Ticks,
		Migrations:     cfg.Migrations,
		Kill:           cfg.Kill,
	}
	for _, x := range intensities {
		if x < 0 {
			return nil, errors.New("cluster: sweep intensity must be >= 0")
		}
		pt, err := runPoint(cfg, x, seed)
		if err != nil {
			return nil, fmt.Errorf("cluster: chaos sweep at intensity %g: %w", x, err)
		}
		sweep.Points = append(sweep.Points, *pt)
		s := pt.ChaosStats
		sweep.TotalFaults += s.Drops + s.Resets + s.Cuts + s.Partitioned
	}
	return sweep, nil
}

// runPoint runs the scenario once at one chaos intensity.
func runPoint(cfg SweepConfig, intensity float64, seed int64) (*SweepPoint, error) {
	tickInterval := cfg.TickInterval
	if tickInterval == 0 {
		tickInterval = time.Millisecond
	}

	// Chaos wiring: a seeded fault-injecting transport on the control
	// plane, the janitor on a tight cadence to converge what the faults
	// strand, and an observer (the run's own if the caller brought none)
	// so retry/reconcile counters are readable afterwards. Probes stay on
	// a clean transport: the driver kills shards deliberately, and a
	// lying probe would misattribute those numbers.
	chaos := intensity > 0
	var chaosT *chaosnet.Transport
	clcfg := Config{
		CheckpointInterval: -1, // the driver checkpoints explicitly
		HealthInterval:     -1, // and recovers explicitly, so the numbers are attributable
		ReconcileInterval:  -1,
		Shard:              serve.Config{TickInterval: tickInterval},
		Observer:           cfg.Observer,
	}
	if chaos {
		t, err := chaosnet.NewTransport(http.DefaultTransport, chaosnet.DefaultProfile(), seed)
		if err != nil {
			return nil, err
		}
		t.SetIntensity(intensity)
		chaosT = t
		clcfg.Transport = t
		clcfg.ReconcileInterval = 50 * time.Millisecond
		clcfg.RetrySeed = seed
		if clcfg.Observer == nil {
			clcfg.Observer = obs.New()
		}
	}
	c, err := New(clcfg)
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	defer func() {
		// A pooled keep-alive connection that never carried a request
		// holds a shard's HTTP shutdown for the server's 5 s grace on new
		// connections; the front tier's client rides the default pool.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()
	// A caller's observer may outlive one point; count only this one.
	retries0, giveups0 := c.mRetries.Value(), c.mGiveups.Value()
	passes0, repairs0 := c.mReconciles.Value(), c.mRepaired.Value()

	shardIDs := make([]string, cfg.Shards)
	for i := range shardIDs {
		shardIDs[i] = fmt.Sprintf("shard-%d", i)
		if err := c.AddShard(shardIDs[i]); err != nil {
			return nil, err
		}
	}

	start := time.Now()

	// Create every session paused so subscribers attach before frame 0.
	sessions := make([]checkpoint.SessionConfig, cfg.Sessions)
	keys := make([]string, cfg.Sessions)
	for i := range keys {
		scfg := cfg.Session
		scfg.Seed += int64(i)
		scfg.Ticks = cfg.Ticks
		sessions[i] = scfg
		info, err := c.CreateSession(serve.CreateRequest{SessionConfig: scfg, StartPaused: true})
		if err != nil {
			return nil, err
		}
		keys[i] = info.Key
	}

	// Subscribers dial the front tier and follow MOVED redirects; on a
	// sever (migration or kill) they re-dial the front tier, which
	// re-resolves the key against the current routing table.
	nSubs := cfg.Sessions * cfg.SubsPerSession
	latency := obs.NewHistogram(obs.ExpBuckets(0.001, 1.6, 40))
	records := make([]int64, nSubs)
	subErrs := make([]error, nSubs)
	var wg sync.WaitGroup
	ready := make(chan error, nSubs)
	deadline := time.Now().Add(5 * time.Minute)
	for i := 0; i < nSubs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := keys[i%cfg.Sessions]
			firstDial := true
			for {
				conn, br, err := serve.SubscribeFollow(c.StreamAddr(), key, "", 4)
				if firstDial {
					ready <- err
					firstDial = false
				}
				if err == nil {
					for {
						rec, err := serve.ReadRecord(br)
						if err != nil {
							break
						}
						latency.Observe(float64(time.Now().UnixNano()-rec.PublishNs) / 1e6)
						records[i]++
					}
					conn.Close()
				}
				// A finished or deleted session ends the subscriber; anything
				// else is a sever (or, mid-kill, a key unrouted until
				// recovery runs) worth re-dialing across.
				if done, gone := sessionLook(c, key, chaos); done || gone {
					return
				}
				if time.Now().After(deadline) {
					subErrs[i] = fmt.Errorf("cluster: subscriber for %s missed the deadline", key)
					return
				}
				if err != nil {
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(i)
	}
	for i := 0; i < nSubs; i++ {
		if err := <-ready; err != nil {
			return nil, fmt.Errorf("cluster: subscribe: %w", err)
		}
	}

	// Fire: resume every session.
	for _, key := range keys {
		if err := c.ResumeSession(key); err != nil {
			return nil, err
		}
	}

	pt := &SweepPoint{Intensity: intensity}

	// Disruption 1: live migrations, spread across the run's first half.
	// Under chaos a failed migration is data, not a driver error: the
	// abort path plus the janitor owe us a converged session, and the
	// failure lands in the success-rate curve.
	for m := 0; m < cfg.Migrations; m++ {
		key := keys[m%len(keys)]
		info, err := c.SessionInfo(key)
		if err != nil {
			if !chaos {
				return nil, err
			}
			pt.MigrationsAttempted++
			pt.MigrationsFailed++
			continue
		}
		if info.State == serve.StateDone {
			continue // the run outpaced the driver; nothing left to move
		}
		target := ""
		for _, id := range shardIDs {
			if id != info.Shard {
				target = id
				break
			}
		}
		pt.MigrationsAttempted++
		if err := c.Migrate(key, target); err != nil {
			if !chaos {
				return nil, fmt.Errorf("cluster: migration %d: %w", m, err)
			}
			pt.MigrationsFailed++
		}
	}

	// Disruption 2: checkpoint everything, kill a shard, recover.
	if cfg.Kill {
		c.CheckpointNow()
		victim := ""
		for _, sh := range c.Topology().Shards {
			if sh.Sessions > 0 {
				victim = sh.ID
				break
			}
		}
		if victim != "" {
			t0 := time.Now()
			if err := c.KillShard(victim); err != nil {
				return nil, err
			}
			recovered, lost, err := c.RecoverShard(victim)
			if err != nil {
				return nil, fmt.Errorf("cluster: recovery: %w", err)
			}
			pt.Killed = victim
			pt.Recovered = recovered
			pt.Lost = lost
			pt.RecoverySeconds = time.Since(t0).Seconds()
		}
	}

	// Wait for every session to finish, keeping its final digest, then
	// for the subscribers to drain. Under chaos a transient read error is
	// retried (the janitor may still be converging the key); only a
	// definitively unrouted key is given up as lost.
	goneKeys := make(map[string]bool)
	served := make([]string, len(keys))
	for i, key := range keys {
		for {
			info, err := c.SessionInfo(key)
			if err == nil && info.State == serve.StateDone {
				served[i] = info.Digest
				break
			}
			if err != nil {
				if !chaos {
					return nil, err
				}
				if _, _, lerr := c.lookup(key); lerr != nil {
					goneKeys[key] = true
					break
				}
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("cluster: session %s did not finish", key)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wg.Wait()
	pt.ElapsedSeconds = time.Since(start).Seconds()

	for i, err := range subErrs {
		if err != nil {
			return nil, fmt.Errorf("cluster: subscriber %d: %w", i, err)
		}
		pt.Records += records[i]
	}
	if latency.Count() > 0 {
		pt.P50Ms = latency.Quantile(0.50)
		pt.P99Ms = latency.Quantile(0.99)
	}
	if chaosT != nil {
		pt.ChaosStats = chaosT.Stats()
	}
	pt.Retries = c.mRetries.Value() - retries0
	pt.Giveups = c.mGiveups.Value() - giveups0
	pt.ReconcilePasses = c.mReconciles.Value() - passes0
	pt.ReconcileRepairs = c.mRepaired.Value() - repairs0
	pt.SurvivalRate = float64(cfg.Sessions-len(goneKeys)) / float64(cfg.Sessions)
	pt.MigrationSuccessRate = 1
	if pt.MigrationsAttempted > 0 {
		pt.MigrationSuccessRate = float64(pt.MigrationsAttempted-pt.MigrationsFailed) /
			float64(pt.MigrationsAttempted)
	}

	// Determinism audit: every served digest must equal an uninterrupted
	// in-process run of the same seed (lost sessions have nothing left
	// to audit).
	mismatches := 0
	for i, key := range keys {
		if goneKeys[key] {
			continue
		}
		want, err := referenceDigest(sessions[i])
		if err != nil {
			return nil, err
		}
		if served[i] != want {
			mismatches++
			continue
		}
		pt.DigestsVerified++
	}
	if mismatches > 0 {
		return nil, fmt.Errorf("cluster: %d of %d digests diverged from uninterrupted runs",
			mismatches, mismatches+pt.DigestsVerified)
	}
	return pt, nil
}

// sessionLook probes a key for subscriber exit decisions. Outside
// chaos any read error ends the subscriber (the baseline behavior);
// under chaos only a definitively unrouted key does — a transient
// control-plane failure or a missing-but-routed copy may yet be
// reconciled, so the subscriber keeps retrying.
func sessionLook(c *Cluster, key string, chaos bool) (done, gone bool) {
	info, err := c.SessionInfo(key)
	if err == nil {
		return info.State == serve.StateDone, false
	}
	if !chaos {
		return false, true
	}
	if _, _, lerr := c.lookup(key); lerr != nil {
		return false, true
	}
	return false, false
}

// referenceDigest runs a session config uninterrupted in-process.
func referenceDigest(cfg checkpoint.SessionConfig) (string, error) {
	p, err := checkpoint.NewPipeline(cfg, 0)
	if err != nil {
		return "", err
	}
	defer p.Close()
	for i := 0; i < cfg.Ticks; i++ {
		if err := p.Step(); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%d", p.Result().Digest), nil
}
