package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mindful/internal/fleet"
	"mindful/internal/obs"
	"mindful/internal/serve/checkpoint"
)

// Session states.
const (
	// StateRunning: the tick loop is stepping the pipeline.
	StateRunning = "running"
	// StatePaused: the tick loop is blocked on the condition variable;
	// the pipeline is quiescent and snapshots are instant.
	StatePaused = "paused"
	// StateDone: the tick target was reached (or the pipeline failed);
	// subscribers have been flushed and the session awaits snapshot or
	// deletion.
	StateDone = "done"
	// StateStopped: the session was deleted or drained; the pipeline is
	// released and only the final result remains readable.
	StateStopped = "stopped"
)

// Session hosts one implant pipeline behind the gateway: a dedicated
// tick-loop goroutine steps it, publishing every delivered frame to the
// attached subscribers. With a TickInterval the loop keeps a fixed-rate
// schedule: tick k of a running stretch is due at anchor + k·interval,
// the loop sleeps until the next due time and, when behind, steps at
// once until it has caught up. The anchor is set when the stretch
// begins — at creation unless started paused, and at every resume — so
// a paused session banks no ticks, and an imported or restored session
// anchors at its own resume. No tick is ever skipped. All pipeline
// access — stepping, snapshotting, result reads — happens under mu, so
// a snapshot waits at most one tick.
type Session struct {
	// ID is the gateway-assigned session identifier.
	ID string

	srv *Server
	cfg checkpoint.SessionConfig

	mu        sync.Mutex
	cond      *sync.Cond
	state     string
	p         *fleet.Pipeline
	target    int // tick target; 0 = run until deleted
	err       error
	final     *fleet.ImplantResult // result frozen when the loop exits
	finalTick int
	// anchor and since are the running stretch's schedule: since ticks
	// have been stepped since anchor, so the next one is due at
	// anchor + since·TickInterval.
	anchor time.Time
	since  int64

	published atomic.Int64 // frames published to the fan-out
	decoded   atomic.Int64 // decoded-kinematics records published
	dropped   atomic.Int64 // frames dropped by full subscriber queues
	evicted   atomic.Int64 // subscribers evicted for stalling

	// lastActive is the wall clock (UnixNano) of the session's last
	// publication (frame or decoded record), seeded at creation — the
	// introspection endpoint's last-activity field.
	lastActive atomic.Int64
	// marks holds the previous tick's fault counters for the flight
	// recorder's fault-path event diffing; only maintained (under mu)
	// when an event log is attached.
	marks faultMarks

	subMu sync.Mutex
	subs  map[*subscriber]struct{}

	done chan struct{} // closed when the tick loop exits
}

// newSession builds a session around an existing pipeline (fresh or
// restored) and starts its tick loop.
func newSession(srv *Server, id string, cfg checkpoint.SessionConfig, p *fleet.Pipeline, target int, paused bool) *Session {
	s := &Session{
		ID:     id,
		srv:    srv,
		cfg:    cfg,
		state:  StateRunning,
		p:      p,
		target: target,
		subs:   make(map[*subscriber]struct{}),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.anchor = time.Now()
	s.lastActive.Store(s.anchor.UnixNano())
	if paused {
		s.state = StatePaused
	}
	if srv.eventsEnabled() {
		// Baseline the fault marks from the pipeline's current counters so
		// a restored session does not replay its history as fresh events.
		res := p.Result()
		s.marks = faultMarks{arqFailed: res.ARQFailed, concealed: res.Concealed, blanked: res.Blanked}
	}
	p.OnDeliver(s.publish)
	if s.hasDecoder() {
		p.OnDecode(s.publishDecoded)
	}
	if cfg.Adapt {
		p.OnRefit(s.recordRefit)
	}
	go s.run()
	return s
}

// recordRefit is the pipeline's OnRefit hook: one flight-recorder event
// and metric bump per applied recalibration, tagged with the instability
// reading that accompanied it. Runs on the tick loop via Step, so it
// needs no locking of its own.
func (s *Session) recordRefit(tick int, refits int64, kl float64) {
	s.srv.mRefits.Inc()
	s.srv.mKL.Set(kl)
	s.srv.event("decoder_refit", s.ID, "",
		obs.EventAttr{Key: "tick", Val: float64(tick)},
		obs.EventAttr{Key: "refits", Val: float64(refits)},
		obs.EventAttr{Key: "kl", Val: kl})
}

// hasDecoder reports whether the session's pipeline runs a decode
// stage, i.e. whether decoded-mode subscriptions make sense.
func (s *Session) hasDecoder() bool {
	return s.cfg.Decoder != "" && s.cfg.Decoder != "none"
}

// run is the tick loop: step while running, wait while paused, finish at
// the target, and on a paced gateway sleep until each tick's due time
// (see Session). It owns no resources — cleanup happens in halt and
// release.
func (s *Session) run() {
	defer close(s.done)
	interval := s.srv.cfg.TickInterval
	for {
		s.mu.Lock()
		for s.state == StatePaused {
			s.cond.Wait()
		}
		if s.state == StateStopped {
			s.freezeLocked()
			s.mu.Unlock()
			return
		}
		if s.target > 0 && s.p.Tick() >= s.target {
			s.state = StateDone
			s.freezeLocked()
			s.mu.Unlock()
			s.finishSubscribers()
			return
		}
		if interval > 0 {
			late := time.Since(s.anchor.Add(time.Duration(s.since) * interval))
			if late < 0 {
				// Not yet due: sleep without the lock, then re-check
				// everything — a pause, resume or stop may land meanwhile.
				s.mu.Unlock()
				time.Sleep(-late)
				continue
			}
			s.since++
			s.srv.tickLateness.Observe(float64(late))
		}
		err := s.p.Step()
		if err != nil {
			s.err = err
			s.state = StateDone
			s.freezeLocked()
			s.mu.Unlock()
			s.finishSubscribers()
			return
		}
		s.srv.obsTick()
		if s.srv.eventsEnabled() {
			s.recordFaultEventsLocked()
		}
		s.mu.Unlock()
	}
}

// faultMarks is the previous tick's fault-counter snapshot, the basis
// for edge-triggered fault-path events.
type faultMarks struct {
	arqFailed int64
	concealed int64
	blanked   int64
	// concealing/blanking report whether the *previous* tick advanced the
	// corresponding counter — the state that turns per-tick deltas into
	// onset events.
	concealing bool
	blanking   bool
}

// recordFaultEventsLocked diffs the pipeline's fault counters against
// the previous tick and records edge-triggered flight-recorder events:
// every ARQ budget exhaustion, and the onsets of concealment runs and
// brownouts (not every tick inside one). Callers hold mu; only invoked
// when an event log is attached.
func (s *Session) recordFaultEventsLocked() {
	res := s.p.Result()
	tick := obs.EventAttr{Key: "tick", Val: float64(s.p.Tick() - 1)}
	if d := res.ARQFailed - s.marks.arqFailed; d > 0 {
		s.srv.event("arq_exhausted", s.ID, "", tick,
			obs.EventAttr{Key: "frames", Val: float64(d)})
	}
	concealing := res.Concealed > s.marks.concealed
	if concealing && !s.marks.concealing {
		s.srv.event("concealment_run", s.ID, "", tick,
			obs.EventAttr{Key: "concealed_total", Val: float64(res.Concealed)})
	}
	blanking := res.Blanked > s.marks.blanked
	if blanking && !s.marks.blanking {
		s.srv.event("brownout_onset", s.ID, "", tick,
			obs.EventAttr{Key: "blanked_total", Val: float64(res.Blanked)})
	}
	s.marks = faultMarks{
		arqFailed:  res.ARQFailed,
		concealed:  res.Concealed,
		blanked:    res.Blanked,
		concealing: concealing,
		blanking:   blanking,
	}
}

// freezeLocked records the final result while the pipeline is still
// open. Callers hold mu.
func (s *Session) freezeLocked() {
	if s.final == nil && s.p != nil {
		res := s.p.Result()
		s.final = &res
		s.finalTick = s.p.Tick()
	}
}

// publish fans one delivered frame out to every subscriber. It runs
// inside Pipeline.Step, i.e. under mu; the fan-out itself only takes
// subMu and the per-subscriber locks, and never blocks on a slow
// consumer (full queues drop their oldest record).
func (s *Session) publish(tick int, data []byte, accepted bool) {
	s.published.Add(1)
	s.srv.obsPublished()
	now := time.Now().UnixNano()
	s.lastActive.Store(now)
	s.subMu.Lock()
	if len(s.subs) == 0 {
		s.subMu.Unlock()
		return
	}
	var flags byte
	if accepted {
		flags |= RecordFlagAccepted
	}
	rec := record{
		tick:      uint64(tick),
		publishNs: now,
		flags:     flags,
		data:      append([]byte(nil), data...), // shared, read-only
	}
	for sub := range s.subs {
		if !sub.decoded {
			sub.push(rec)
		}
	}
	s.subMu.Unlock()
}

// publishDecoded fans one decoder step out to the decoded-mode
// subscribers. Like publish it runs inside Pipeline.Step; the estimate
// is serialized as big-endian float64s so the payload is byte-stable
// across platforms.
func (s *Session) publishDecoded(tick int, estimate []float64, concealed int) {
	s.decoded.Add(1)
	s.srv.obsDecoded()
	now := time.Now().UnixNano()
	s.lastActive.Store(now)
	s.subMu.Lock()
	if len(s.subs) == 0 {
		s.subMu.Unlock()
		return
	}
	flags := RecordFlagDecoded
	if concealed > 0 {
		flags |= RecordFlagConcealedBin
	}
	data := make([]byte, 0, 8*len(estimate))
	for _, v := range estimate {
		data = binary.BigEndian.AppendUint64(data, math.Float64bits(v))
	}
	rec := record{
		tick:      uint64(tick),
		publishNs: now,
		flags:     flags,
		data:      data,
	}
	for sub := range s.subs {
		if sub.decoded {
			sub.push(rec)
		}
	}
	s.subMu.Unlock()
}

// attach registers a subscriber; it fails once the session can publish
// nothing more.
func (s *Session) attach(sub *subscriber) error {
	s.mu.Lock()
	st := s.state
	s.mu.Unlock()
	if st == StateDone || st == StateStopped {
		return fmt.Errorf("serve: session %s is %s", s.ID, st)
	}
	s.subMu.Lock()
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	s.srv.obsSubscribers(+1)
	return nil
}

// detach unregisters a subscriber (idempotent); evicted marks a
// stall-policy eviction rather than a clean disconnect.
func (s *Session) detach(sub *subscriber, evicted bool) {
	s.subMu.Lock()
	_, present := s.subs[sub]
	delete(s.subs, sub)
	s.subMu.Unlock()
	if !present {
		return
	}
	s.srv.obsSubscribers(-1)
	if evicted {
		s.evicted.Add(1)
		s.srv.obsEvicted()
		s.srv.event("subscriber_evict", s.ID, "stall",
			obs.EventAttr{Key: "dropped", Val: float64(sub.droppedCount())})
	}
}

// finishSubscribers lets every subscriber flush its queue and then
// close — the end-of-session drain.
func (s *Session) finishSubscribers() {
	s.subMu.Lock()
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.finish()
	}
}

// pause suspends the tick loop at the next tick boundary.
func (s *Session) pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning:
		s.state = StatePaused
		s.srv.event("session_pause", s.ID, "",
			obs.EventAttr{Key: "tick", Val: float64(s.p.Tick())})
		return nil
	case StatePaused:
		return nil
	default:
		return fmt.Errorf("serve: cannot pause a %s session", s.state)
	}
}

// resume restarts a paused tick loop.
func (s *Session) resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StatePaused:
		s.state = StateRunning
		s.anchor, s.since = time.Now(), 0
		s.cond.Broadcast()
		s.srv.event("session_resume", s.ID, "",
			obs.EventAttr{Key: "tick", Val: float64(s.p.Tick())})
		return nil
	case StateRunning:
		return nil
	default:
		return fmt.Errorf("serve: cannot resume a %s session", s.state)
	}
}

// snapshot serializes the session's full state. It blocks the tick loop
// for the duration of one encode.
func (s *Session) snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p == nil {
		return nil, errors.New("serve: session already released")
	}
	if s.err != nil {
		return nil, fmt.Errorf("%w: %v", errSessionFailed, s.err)
	}
	blob, err := checkpoint.Snapshot(s.cfg, s.p)
	if err == nil {
		s.srv.event("session_snapshot", s.ID, "",
			obs.EventAttr{Key: "tick", Val: float64(s.p.Tick())},
			obs.EventAttr{Key: "bytes", Val: float64(len(blob))})
	}
	return blob, err
}

// exportSnapshot freezes the session for migration: a running tick
// loop is paused at its next boundary (done sessions snapshot as-is),
// then the full state is serialized under the same lock hold so the
// blob and the reported tick cannot diverge. The session stays paused —
// the migration coordinator deletes it after a successful import on the
// target shard, or resumes it to abort.
func (s *Session) exportSnapshot() ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p == nil {
		return nil, 0, errors.New("serve: session already released")
	}
	if s.err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errSessionFailed, s.err)
	}
	if s.state == StateRunning {
		s.state = StatePaused
		s.srv.event("session_pause", s.ID, "export",
			obs.EventAttr{Key: "tick", Val: float64(s.p.Tick())})
	}
	blob, err := checkpoint.Snapshot(s.cfg, s.p)
	if err != nil {
		return nil, 0, err
	}
	s.srv.event("session_export", s.ID, "",
		obs.EventAttr{Key: "tick", Val: float64(s.p.Tick())},
		obs.EventAttr{Key: "bytes", Val: float64(len(blob))})
	return blob, s.p.Tick(), nil
}

// halt stops the tick loop (if still running) and waits for it to exit.
// The pipeline stays open so a final snapshot can still be taken.
func (s *Session) halt() {
	s.mu.Lock()
	if s.state == StateRunning || s.state == StatePaused {
		s.state = StateStopped
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
}

// release closes every subscriber and the pipeline. halt must have been
// called first.
func (s *Session) release() {
	s.subMu.Lock()
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.close()
		s.detach(sub, false)
	}
	s.mu.Lock()
	s.freezeLocked()
	if s.p != nil {
		s.p.Close()
		s.p = nil
	}
	s.mu.Unlock()
}

// SessionInfo is the control plane's view of one session.
type SessionInfo struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Tick        int    `json:"tick"`
	Target      int    `json:"ticks"`
	Subscribers int    `json:"subscribers"`
	Published   int64  `json:"frames_published"`
	Dropped     int64  `json:"dropped_frames"`
	Evicted     int64  `json:"evicted_subscribers"`
	// Digest is the pipeline's FNV-1a output digest as a decimal string
	// (JSON numbers lose uint64 precision).
	Digest string `json:"digest"`
	// Frames/Accepted/Concealed summarize the pipeline's accounting.
	Frames    int64 `json:"frames"`
	Accepted  int64 `json:"frames_accepted"`
	Concealed int64 `json:"frames_concealed"`
	// Decoder names the session's decoder ("" when decoding is off);
	// the remaining fields mirror the pipeline's decode accounting.
	// DecodeDigest is a decimal string for the same reason Digest is.
	Decoder          string `json:"decoder,omitempty"`
	DecodedSteps     int64  `json:"decoded_steps,omitempty"`
	DecodedPublished int64  `json:"decoded_published,omitempty"`
	DecodeDigest     string `json:"decode_digest,omitempty"`
	Error            string `json:"error,omitempty"`
}

// info reports the session's current state.
func (s *Session) info() SessionInfo {
	s.mu.Lock()
	var res fleet.ImplantResult
	var tick int
	switch {
	case s.final != nil:
		res = *s.final
		tick = s.finalTick
	case s.p != nil:
		res = s.p.Result()
		tick = s.p.Tick()
	}
	info := SessionInfo{
		ID:        s.ID,
		State:     s.state,
		Tick:      tick,
		Target:    s.target,
		Digest:    fmt.Sprintf("%d", res.Digest),
		Frames:    res.Frames,
		Accepted:  res.Accepted,
		Concealed: res.Concealed,
	}
	if s.hasDecoder() {
		info.Decoder = s.cfg.Decoder
		info.DecodedSteps = res.DecodedSteps
		info.DecodeDigest = fmt.Sprintf("%d", res.DecodeDigest)
	}
	if s.err != nil {
		info.Error = s.err.Error()
	}
	s.mu.Unlock()
	info.DecodedPublished = s.decoded.Load()
	info.Published = s.published.Load()
	info.Dropped = s.dropped.Load()
	info.Evicted = s.evicted.Load()
	s.subMu.Lock()
	info.Subscribers = len(s.subs)
	s.subMu.Unlock()
	return info
}

// QueueStats is one subscriber queue's introspection view.
type QueueStats struct {
	// Mode is "frames" or "decoded".
	Mode string `json:"mode"`
	// Depth is the number of records currently queued; Capacity the ring
	// size the drop-oldest policy enforces.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	// Dropped counts records this queue discarded oldest-first.
	Dropped int64 `json:"dropped"`
}

// SessionStats is the per-session introspection view: the control-plane
// info plus queue depths, decode accounting and last activity.
type SessionStats struct {
	SessionInfo
	// LastActivityUnixNs is the wall clock of the last published record
	// (session creation when nothing has published yet).
	LastActivityUnixNs int64 `json:"last_activity_unix_ns"`
	// DecodeConcealedBins and DecodeMACs extend the info's decode
	// accounting for sessions with a decoder.
	DecodeConcealedBins int64 `json:"decode_concealed_bins,omitempty"`
	DecodeMACs          int64 `json:"decode_macs,omitempty"`
	// Queues lists every attached subscriber's queue, unordered.
	Queues []QueueStats `json:"queues"`
}

// stats reports the session's introspection view.
func (s *Session) stats() SessionStats {
	st := SessionStats{
		SessionInfo:        s.info(),
		LastActivityUnixNs: s.lastActive.Load(),
	}
	s.mu.Lock()
	var res fleet.ImplantResult
	switch {
	case s.final != nil:
		res = *s.final
	case s.p != nil:
		res = s.p.Result()
	}
	s.mu.Unlock()
	if s.hasDecoder() {
		st.DecodeConcealedBins = res.DecodeConcealedBins
		st.DecodeMACs = res.DecodeMACs
	}
	s.subMu.Lock()
	st.Queues = make([]QueueStats, 0, len(s.subs))
	for sub := range s.subs {
		st.Queues = append(st.Queues, sub.queueStats())
	}
	s.subMu.Unlock()
	return st
}
