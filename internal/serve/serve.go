// Package serve is the streaming session gateway: many concurrent
// implant → modem → AWGN → wearable pipelines (fleet.Pipeline) hosted
// behind two planes. The control plane is JSON over HTTP — create,
// pause, resume, snapshot, restore and delete sessions, list stats. The
// data plane is a length-prefixed binary stream over TCP — subscribers
// receive every frame a session's wearable hears, with bounded
// per-subscriber queues, an explicit drop-oldest backpressure policy
// and stall-based eviction, so one slow consumer can never stall a tick
// loop or another session.
//
// Checkpoint/restore rides the fleet package's determinism guarantee:
// a session snapshotted at tick K and restored — in this process or
// another — continues bit-identically, digest and all.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mindful/internal/drift"
	"mindful/internal/obs"
	"mindful/internal/serve/checkpoint"
)

// Defaults for the zero Config values.
const (
	DefaultMaxSessions  = 1024
	DefaultQueueDepth   = 256
	DefaultStallTimeout = 5 * time.Second
)

// Config describes one gateway.
type Config struct {
	// ControlAddr is the HTTP control-plane listen address
	// (e.g. "127.0.0.1:0").
	ControlAddr string
	// StreamAddr is the TCP data-plane listen address.
	StreamAddr string
	// SnapshotDir, when set, receives one checkpoint per live session on
	// graceful shutdown (<id>.ckpt).
	SnapshotDir string
	// MaxSessions bounds concurrently hosted sessions (0 = default).
	MaxSessions int
	// QueueDepth is the per-subscriber record queue (0 = default). When
	// full, the oldest record is dropped and counted.
	QueueDepth int
	// StallTimeout evicts a subscriber whose connection blocks a write
	// longer than this (0 = default; negative disables eviction).
	StallTimeout time.Duration
	// TickInterval is every session's fixed tick period (0 = free-run).
	// Tick k of a running stretch is due at anchor + k·TickInterval, the
	// anchor being the stretch's start (creation or resume); a loop that
	// falls behind steps at once until it has caught up, and a paused
	// one banks no ticks.
	TickInterval time.Duration
	// DefaultDecoder, when set (e.g. "kalman"), attaches that decoder to
	// every created session whose config does not name one itself.
	DefaultDecoder string
	// DefaultDrift, when set, attaches that nonstationarity profile to
	// every created session that does not configure drift itself.
	DefaultDrift *drift.Profile
	// DefaultAdapt closes the recalibration loop (calibration, tracking
	// and periodic refits with the fleet's default windows) on every
	// created session that runs a linear decoder and does not set any
	// adaptive knob itself.
	DefaultAdapt bool
	// Redirect, when set, resolves sessions this gateway does not host:
	// a data-plane SUB for an unknown ID consults it and, on success,
	// answers "MOVED <addr> <id>" instead of an error — the cluster
	// front tier's subscriber-redirect hook.
	Redirect func(sessionID string) (addr, localID string, ok bool)
	// Observer optionally collects gateway metrics and traces.
	Observer *obs.Observer
}

// Server is one running gateway.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64
	closed   bool

	// At-most-once support for a retrying control plane: restores carry
	// an Idempotency-Key header mapping token → created session, and
	// deletes of recently deleted IDs answer success again instead of
	// 404. Both records are bounded FIFO — session IDs are never reused
	// (nextID only grows), so a record aging out can only turn a very
	// stale retry into an error, never into a duplicate effect.
	idemTokens  map[string]string
	idemFIFO    []string
	deleted     map[string]struct{}
	deletedFIFO []string

	ctlLn    net.Listener
	strLn    net.Listener
	httpSrv  *http.Server
	wg       sync.WaitGroup
	ready    atomic.Bool
	draining atomic.Bool

	// events is the flight recorder's structured log (nil without an
	// observer — every Record call is nil-safe). latency is the
	// end-to-end publish→subscriber-write histogram behind the /api/stats
	// latency percentiles; always live, observed off the tick loop in
	// subscriber write loops. tickLateness is how late each paced tick
	// started against its due time, observed on the tick loop; always
	// live, untouched when TickInterval is 0.
	events       *obs.EventLog
	latency      *obs.Histogram
	tickLateness *obs.Histogram

	mSessions  *obs.Gauge
	mSubs      *obs.Gauge
	mCreated   *obs.Counter
	mRestored  *obs.Counter
	mPublished *obs.Counter
	mDropped   *obs.Counter
	mEvicted   *obs.Counter
	mTicks     *obs.Counter
	mDecoded   *obs.Counter
	mDecSess   *obs.Counter
	mRefits    *obs.Counter
	mKL        *obs.Gauge
}

// New returns an unstarted gateway.
func New(cfg Config) (*Server, error) {
	if cfg.ControlAddr == "" {
		cfg.ControlAddr = "127.0.0.1:0"
	}
	if cfg.StreamAddr == "" {
		cfg.StreamAddr = "127.0.0.1:0"
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxSessions < 1 {
		return nil, errors.New("serve: MaxSessions must be positive")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 1 {
		return nil, errors.New("serve: QueueDepth must be positive")
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = DefaultStallTimeout
	}
	s := &Server{
		cfg:        cfg,
		sessions:   make(map[string]*Session),
		idemTokens: make(map[string]string),
		deleted:    make(map[string]struct{}),
		// 1µs..~8s exponential buckets: a local subscriber writes within
		// microseconds; a stalled one drifts toward the eviction timeout.
		latency: obs.NewHistogram(obs.ExpBuckets(1000, 2, 24)),
		// Same 1µs..~8s shape: an on-time tick starts within the sleep's
		// overshoot; a starved one falls behind by whole ticks or more.
		tickLateness: obs.NewHistogram(obs.ExpBuckets(1000, 2, 24)),
	}
	if o := cfg.Observer; o != nil {
		s.events = o.Events
	}
	if o := cfg.Observer; o != nil && o.Metrics != nil {
		m := o.Metrics
		s.mSessions = m.Gauge("serve_sessions_active")
		s.mSubs = m.Gauge("serve_subscribers_active")
		s.mCreated = m.Counter("serve_sessions_created_total")
		s.mRestored = m.Counter("serve_sessions_restored_total")
		s.mPublished = m.Counter("serve_frames_published_total")
		s.mDropped = m.Counter("serve_frames_dropped_total")
		s.mEvicted = m.Counter("serve_subscribers_evicted_total")
		s.mTicks = m.Counter("serve_ticks_total")
		s.mDecoded = m.Counter("serve_decode_steps_total")
		s.mDecSess = m.Counter("serve_decode_sessions_total")
		s.mRefits = m.Counter("serve_decode_refits_total")
		s.mKL = m.Gauge("serve_decode_instability_kl")
		m.Help("serve_sessions_active", "Sessions currently hosted.")
		m.Help("serve_subscribers_active", "Data-plane subscribers currently attached.")
		m.Help("serve_sessions_created_total", "Sessions created fresh.")
		m.Help("serve_sessions_restored_total", "Sessions restored from checkpoints.")
		m.Help("serve_frames_published_total", "Frames published to the data plane.")
		m.Help("serve_frames_dropped_total", "Frames dropped by full subscriber queues.")
		m.Help("serve_subscribers_evicted_total", "Subscribers evicted for stalling.")
		m.Help("serve_ticks_total", "Pipeline ticks stepped across all sessions.")
		m.Help("serve_decode_steps_total", "Decoder steps published across all sessions.")
		m.Help("serve_decode_sessions_total", "Sessions hosted with a decoder in the loop.")
		m.Help("serve_decode_refits_total", "Closed-loop decoder recalibrations applied across all sessions.")
		m.Help("serve_decode_instability_kl", "Latest instability (KL divergence) reading at a refit, any session.")
	}
	return s, nil
}

// event records one flight-recorder entry; a no-op without an observer
// (EventLog.Record is nil-safe).
func (s *Server) event(typ, subject, detail string, attrs ...obs.EventAttr) {
	s.events.Record(typ, subject, detail, attrs...)
}

// eventsEnabled gates the per-tick fault-path diffing: the diff costs a
// Result() call per tick, so sessions skip it entirely when no event log
// is attached.
func (s *Server) eventsEnabled() bool { return s.events != nil }

// observeDelivery records one record's publish→subscriber-write latency.
func (s *Server) observeDelivery(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.latency.Observe(float64(ns))
}

// Nil-safe metric hooks.
func (s *Server) obsPublished() { s.mPublished.Inc() }
func (s *Server) obsDropped()   { s.mDropped.Inc() }
func (s *Server) obsEvicted()   { s.mEvicted.Inc() }
func (s *Server) obsTick()      { s.mTicks.Inc() }
func (s *Server) obsDecoded()   { s.mDecoded.Inc() }
func (s *Server) obsSubscribers(d float64) {
	if s.mSubs != nil {
		s.mSubs.Add(d)
	}
}

func (s *Server) queueDepth() int { return s.cfg.QueueDepth }
func (s *Server) stallTimeout() time.Duration {
	if s.cfg.StallTimeout < 0 {
		return 0
	}
	return s.cfg.StallTimeout
}

// Start binds both planes and begins serving. It returns immediately;
// use ControlAddr/StreamAddr for the bound addresses.
func (s *Server) Start() error {
	ctl, err := net.Listen("tcp", s.cfg.ControlAddr)
	if err != nil {
		return fmt.Errorf("serve: control plane: %w", err)
	}
	str, err := net.Listen("tcp", s.cfg.StreamAddr)
	if err != nil {
		ctl.Close()
		return fmt.Errorf("serve: data plane: %w", err)
	}
	s.ctlLn, s.strLn = ctl, str
	s.httpSrv = &http.Server{Handler: s.controlMux()}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.httpSrv.Serve(ctl) // returns on Shutdown/Close
	}()
	go func() {
		defer s.wg.Done()
		for {
			conn, err := str.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.serveStream(conn)
		}
	}()
	s.ready.Store(true)
	return nil
}

// Ready reports whether the gateway is accepting work: both planes
// bound, not draining, shutdown not begun — the /readyz contract.
func (s *Server) Ready() bool {
	if !s.ready.Load() || s.draining.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// SetDraining marks the gateway as draining for a rebalance: /readyz
// answers 503 so load balancers stop placing new work here, while the
// planes stay up for the sessions migrating off. Clearing it restores
// readiness.
func (s *Server) SetDraining(v bool) {
	if s.draining.Swap(v) != v {
		state := "end"
		if v {
			state = "begin"
		}
		s.event("gateway_drain", state, "")
	}
}

// ControlAddr returns the bound control-plane address.
func (s *Server) ControlAddr() string { return s.ctlLn.Addr().String() }

// StreamAddr returns the bound data-plane address.
func (s *Server) StreamAddr() string { return s.strLn.Addr().String() }

// session looks a session up by ID.
func (s *Server) session(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("serve: no session %q", id)
	}
	return sess, nil
}

// register assigns an ID and inserts the session builder's product
// under the capacity limit.
func (s *Server) register(build func(id string) (*Session, error)) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("serve: server is shutting down")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, fmt.Errorf("serve: session limit %d reached", s.cfg.MaxSessions)
	}
	s.nextID++
	id := fmt.Sprintf("s%06d", s.nextID)
	sess, err := build(id)
	if err != nil {
		return nil, err
	}
	s.sessions[id] = sess
	if s.mSessions != nil {
		s.mSessions.Add(1)
	}
	return sess, nil
}

// CreateSession builds a fresh pipeline session. With startPaused the
// tick loop waits for an explicit resume — the way to attach
// subscribers before the first frame. A session config that names no
// decoder inherits the gateway's DefaultDecoder; one that configures no
// nonstationarity or adaptation inherits DefaultDrift and DefaultAdapt.
func (s *Server) CreateSession(cfg checkpoint.SessionConfig, startPaused bool) (*Session, error) {
	if cfg.Decoder == "" && s.cfg.DefaultDecoder != "" && s.cfg.DefaultDecoder != "none" {
		cfg.Decoder = s.cfg.DefaultDecoder
	}
	if cfg.Drift == nil && s.cfg.DefaultDrift != nil {
		cfg.Drift = s.cfg.DefaultDrift
	}
	if s.cfg.DefaultAdapt && cfg.Decoder != "" && cfg.Decoder != "none" && cfg.Decoder != "dnn" &&
		!cfg.Calibrate && !cfg.Track && !cfg.Adapt {
		cfg.Calibrate, cfg.Track, cfg.Adapt = true, true, true
	}
	if _, err := cfg.FleetConfig(); err != nil {
		return nil, err
	}
	return s.register(func(id string) (*Session, error) {
		p, err := checkpoint.NewPipeline(cfg, 0)
		if err != nil {
			return nil, err
		}
		s.mCreated.Inc()
		sess := newSession(s, id, cfg, p, cfg.Ticks, startPaused)
		if sess.hasDecoder() {
			s.mDecSess.Inc()
		}
		s.event("session_create", id, cfg.Decoder,
			obs.EventAttr{Key: "channels", Val: float64(cfg.Channels)},
			obs.EventAttr{Key: "ticks", Val: float64(cfg.Ticks)})
		return sess, nil
	})
}

// RestoreSession rebuilds a session from a checkpoint blob. ticks > 0
// overrides the session's tick target — the way to extend a finished
// session's run; 0 keeps the checkpointed target.
func (s *Server) RestoreSession(blob []byte, ticks int, startPaused bool) (*Session, error) {
	cfg, p, err := checkpoint.Restore(blob)
	if err != nil {
		return nil, err
	}
	// Read the checkpoint tick now: once newSession starts the session's
	// goroutine, that goroutine alone may touch p.
	tick := p.Tick()
	if ticks > 0 {
		if ticks < tick {
			p.Close()
			return nil, fmt.Errorf("serve: tick target %d behind checkpoint tick %d", ticks, tick)
		}
		cfg.Ticks = ticks
	}
	sess, err := s.register(func(id string) (*Session, error) {
		s.mRestored.Inc()
		sess := newSession(s, id, cfg, p, cfg.Ticks, startPaused)
		if sess.hasDecoder() {
			s.mDecSess.Inc()
		}
		s.event("session_restore", id, cfg.Decoder,
			obs.EventAttr{Key: "tick", Val: float64(tick)},
			obs.EventAttr{Key: "ticks", Val: float64(cfg.Ticks)})
		return sess, nil
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	return sess, nil
}

// Bounds for the idempotency records: tokens cover in-flight retry
// windows (one per restore call), the deleted ring covers delete
// retries arriving after the first attempt already landed.
const (
	maxIdemTokens = 1024
	maxDeletedIDs = 4096
)

// idemLookup returns the session a prior attempt with this token
// created, if the token is known and the session still exists.
func (s *Server) idemLookup(token string) (*Session, bool) {
	if token == "" {
		return nil, false
	}
	s.mu.Lock()
	id, ok := s.idemTokens[token]
	var sess *Session
	if ok {
		sess = s.sessions[id]
	}
	s.mu.Unlock()
	if !ok || sess == nil {
		return nil, false
	}
	return sess, true
}

// idemRecord binds a token to the session its first attempt created.
// Callers hold no locks.
func (s *Server) idemRecord(token, id string) {
	if token == "" {
		return
	}
	s.mu.Lock()
	if _, dup := s.idemTokens[token]; !dup {
		s.idemTokens[token] = id
		s.idemFIFO = append(s.idemFIFO, token)
		if len(s.idemFIFO) > maxIdemTokens {
			delete(s.idemTokens, s.idemFIFO[0])
			s.idemFIFO = s.idemFIFO[1:]
		}
	}
	s.mu.Unlock()
}

// idemDeleted reports whether an unknown session ID was deleted
// recently — a retried DELETE whose first attempt already landed.
func (s *Server) idemDeleted(id string) bool {
	s.mu.Lock()
	_, ok := s.deleted[id]
	s.mu.Unlock()
	return ok
}

// DeleteSession halts, releases and forgets a session.
func (s *Server) DeleteSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		if _, dup := s.deleted[id]; !dup {
			s.deleted[id] = struct{}{}
			s.deletedFIFO = append(s.deletedFIFO, id)
			if len(s.deletedFIFO) > maxDeletedIDs {
				delete(s.deleted, s.deletedFIFO[0])
				s.deletedFIFO = s.deletedFIFO[1:]
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no session %q", id)
	}
	s.event("session_delete", id, "")
	sess.halt()
	sess.release(true)
	if s.mSessions != nil {
		s.mSessions.Add(-1)
	}
	return nil
}

// Sessions lists the hosted sessions' infos, ordered by ID.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	list := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	s.mu.Unlock()
	infos := make([]SessionInfo, 0, len(list))
	for _, sess := range list {
		infos = append(infos, sess.info())
	}
	sortInfos(infos)
	return infos
}

func sortInfos(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// Shutdown drains the gateway: stop accepting, halt every tick loop at
// its next boundary, snapshot live sessions to SnapshotDir (when
// configured), release everything and wait for the workers, all bounded
// by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()

	s.strLn.Close()
	httpErr := s.httpSrv.Shutdown(ctx)

	var snapErr error
	for _, sess := range sessions {
		s.event("session_drain", sess.ID, "")
		sess.halt()
		if s.cfg.SnapshotDir != "" {
			if blob, err := sess.snapshot(); err == nil {
				path := filepath.Join(s.cfg.SnapshotDir, sess.ID+".ckpt")
				if err := os.WriteFile(path, blob, 0o644); err != nil && snapErr == nil {
					snapErr = err
				}
			} else if snapErr == nil && !errors.Is(err, errSessionFailed) {
				snapErr = err
			}
		}
		sess.release(true)
		if s.mSessions != nil {
			s.mSessions.Add(-1)
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
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
	return snapErr
}

// Kill stops the gateway the way SIGKILL would, minus the leaked
// goroutines: both listeners close immediately, every subscriber
// connection is severed mid-record, and no drain checkpoints are
// written. Sessions vanish with whatever state they had — recovery is
// the cluster's business, from checkpoints taken before the kill. The
// chaos tests use it to stand in for a gateway process dying.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()

	s.ready.Store(false)
	s.strLn.Close()
	s.httpSrv.Close() // closes the control listener and every live conn
	for _, sess := range sessions {
		sess.halt()
		sess.release(false)
		if s.mSessions != nil {
			s.mSessions.Add(-1)
		}
	}
	s.wg.Wait()
}

// errSessionFailed lets Shutdown skip snapshotting failed sessions
// without masking real snapshot errors.
var errSessionFailed = errors.New("serve: session failed")
