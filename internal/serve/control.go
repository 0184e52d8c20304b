package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mindful/internal/cluster/wire"
	"mindful/internal/obs"
	"mindful/internal/serve/checkpoint"
)

// The control plane is plain JSON over HTTP:
//
//	POST   /api/sessions                 create (body: CreateRequest)
//	GET    /api/sessions                 list session infos
//	GET    /api/sessions/{id}            one session's info
//	POST   /api/sessions/{id}/pause      suspend the tick loop
//	POST   /api/sessions/{id}/resume     resume the tick loop
//	GET    /api/sessions/{id}/checkpoint binary snapshot blob
//	POST   /api/sessions/{id}/export     pause + snapshot into a
//	                                     migration envelope (?key=K
//	                                     stamps the cluster session key)
//	POST   /api/sessions/import          restore a migration envelope
//	                                     paused (checkpoint transfer
//	                                     target)
//	POST   /api/sessions/restore         new session from a blob
//	                                     (?ticks=N extends the target,
//	                                      ?start_paused=1 creates paused)
//	DELETE /api/sessions/{id}            halt, release, forget
//	GET    /api/sessions/{id}/stats      per-session introspection (queue
//	                                     depths, drops, decode stats,
//	                                     last activity)
//	GET    /api/stats                    gateway-wide aggregates +
//	                                     delivery-latency and
//	                                     tick-lateness percentiles
//	POST   /api/drain                    toggle rebalance draining
//	                                     (?on=true|false; /readyz is 503
//	                                     while on)
//	GET    /healthz                      liveness
//	GET    /readyz                       readiness (503 until both planes
//	                                     are bound; 503 while draining
//	                                     for a rebalance; 503 again once
//	                                     shutdown begins)
//
// Errors are {"error": "..."} with a meaningful status code.

// maxControlBody bounds request bodies (checkpoint blobs are O(channels)).
const maxControlBody = 16 << 20

// CreateRequest is the session-creation body: the session configuration
// plus gateway-level options.
type CreateRequest struct {
	checkpoint.SessionConfig
	// StartPaused creates the session with its tick loop suspended so
	// subscribers can attach before the first frame.
	StartPaused bool `json:"start_paused"`
}

// StatsResponse is the gateway-wide aggregate view. The delivery
// latency fields are end-to-end publish→subscriber-write percentiles in
// milliseconds, estimated from the delivery histogram; zero until a
// record has been delivered. The tick-lateness fields are how late paced
// ticks started against their fixed-rate due times — whether the
// gateway holds its clock; zero when TickInterval is 0.
type StatsResponse struct {
	Sessions    int   `json:"sessions"`
	Subscribers int   `json:"subscribers"`
	Published   int64 `json:"frames_published"`
	Dropped     int64 `json:"dropped_frames"`
	Evicted     int64 `json:"evicted_subscribers"`

	Delivered            int64   `json:"records_delivered"`
	DeliveryLatencyP50Ms float64 `json:"delivery_latency_p50_ms"`
	DeliveryLatencyP99Ms float64 `json:"delivery_latency_p99_ms"`
	// P999 is the p99.9 tail — the SLO figure stall eviction protects.
	DeliveryLatencyP999Ms float64 `json:"delivery_latency_p999_ms"`

	TickLatenessP50Ms float64 `json:"tick_lateness_p50_ms"`
	TickLatenessP99Ms float64 `json:"tick_lateness_p99_ms"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusFor maps lookup failures to 404 and everything else to the
// given fallback.
func statusFor(err error, fallback int) int {
	if strings.Contains(err.Error(), "no session") {
		return http.StatusNotFound
	}
	return fallback
}

func (s *Server) controlMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /api/drain", s.handleDrain)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /api/sessions/{id}/stats", s.handleSessionStats)
	mux.HandleFunc("POST /api/sessions", s.handleCreate)
	mux.HandleFunc("GET /api/sessions", s.handleList)
	mux.HandleFunc("POST /api/sessions/restore", s.handleRestore)
	mux.HandleFunc("GET /api/sessions/{id}", s.handleGet)
	mux.HandleFunc("POST /api/sessions/{id}/pause", s.handlePause)
	mux.HandleFunc("POST /api/sessions/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /api/sessions/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /api/sessions/{id}/export", s.handleExport)
	mux.HandleFunc("POST /api/sessions/import", s.handleImport)
	mux.HandleFunc("DELETE /api/sessions/{id}", s.handleDelete)
	return mux
}

// handleDrain toggles the draining flag (?on=true|false): while set,
// /readyz answers 503 so nothing new is placed here, but the planes
// stay up for the sessions migrating off — the rebalance coordinator's
// knob.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	on, err := strconv.ParseBool(r.URL.Query().Get("on"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("on must be a boolean"))
		return
	}
	s.SetDraining(on)
	writeJSON(w, http.StatusOK, map[string]bool{"draining": on})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	for _, info := range s.Sessions() {
		resp.Sessions++
		resp.Subscribers += info.Subscribers
		resp.Published += info.Published
		resp.Dropped += info.Dropped
		resp.Evicted += info.Evicted
	}
	resp.Delivered = s.latency.Count()
	const msPerNs = 1e-6
	resp.DeliveryLatencyP50Ms = s.latency.Quantile(0.50) * msPerNs
	resp.DeliveryLatencyP99Ms = s.latency.Quantile(0.99) * msPerNs
	resp.DeliveryLatencyP999Ms = s.latency.Quantile(0.999) * msPerNs
	resp.TickLatenessP50Ms = s.tickLateness.Quantile(0.50) * msPerNs
	resp.TickLatenessP99Ms = s.tickLateness.Quantile(0.99) * msPerNs
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.stats())
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxControlBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	token := r.Header.Get("Idempotency-Key")
	if prev, ok := s.idemLookup(token); ok {
		writeJSON(w, http.StatusCreated, prev.info())
		return
	}
	sess, err := s.CreateSession(req.SessionConfig, req.StartPaused)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.idemRecord(token, sess.ID)
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.handleTransition(w, r, (*Session).pause)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.handleTransition(w, r, (*Session).resume)
}

func (s *Server) handleTransition(w http.ResponseWriter, r *http.Request, f func(*Session) error) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err := f(sess); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	blob, err := sess.snapshot()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// handleExport is the migration source's half of a checkpoint transfer:
// pause the session (running loops stop at the next tick boundary),
// snapshot it, and return a wire.Envelope stamped with the caller's
// cluster key (?key=...). The session stays paused — the coordinator
// deletes it once the import lands, or resumes it to abort.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	blob, tick, err := sess.exportSnapshot()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	env, err := wire.Encode(wire.Envelope{
		Key:      r.URL.Query().Get("key"),
		SourceID: sess.ID,
		Tick:     uint64(tick),
		Blob:     blob,
	})
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(env)))
	w.WriteHeader(http.StatusOK)
	w.Write(env)
}

// handleImport is the migration target's half: decode the envelope,
// restore its checkpoint paused (the coordinator resumes after
// redirecting subscribers), and reject a transfer whose restored tick
// does not match the envelope's — a corrupted or mismatched blob must
// not silently take over a session. An Idempotency-Key header makes a
// retried import at-most-once: a token seen before answers with the
// session the first attempt created instead of restoring a second copy.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	token := r.Header.Get("Idempotency-Key")
	if prev, ok := s.idemLookup(token); ok {
		writeJSON(w, http.StatusCreated, prev.info())
		return
	}
	buf, err := io.ReadAll(io.LimitReader(r.Body, maxControlBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	env, err := wire.Decode(buf)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.RestoreSession(env.Blob, 0, true)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	info := sess.info()
	if info.Tick != int(env.Tick) {
		s.DeleteSession(sess.ID)
		writeErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("serve: imported tick %d does not match envelope tick %d", info.Tick, env.Tick))
		return
	}
	sess.holdUntilAttach()
	s.idemRecord(token, sess.ID)
	s.event("session_import", sess.ID, env.Key,
		obs.EventAttr{Key: "tick", Val: float64(info.Tick)})
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	token := r.Header.Get("Idempotency-Key")
	if prev, ok := s.idemLookup(token); ok {
		writeJSON(w, http.StatusCreated, prev.info())
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxControlBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ticks := 0
	if v := r.URL.Query().Get("ticks"); v != "" {
		ticks, err = strconv.Atoi(v)
		if err != nil || ticks < 0 {
			writeErr(w, http.StatusBadRequest, errors.New("ticks must be a non-negative integer"))
			return
		}
	}
	startPaused := false
	if v := r.URL.Query().Get("start_paused"); v != "" {
		startPaused, err = strconv.ParseBool(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, errors.New("start_paused must be a boolean"))
			return
		}
	}
	sess, err := s.RestoreSession(blob, ticks, startPaused)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.idemRecord(token, sess.ID)
	writeJSON(w, http.StatusCreated, sess.info())
}

// handleDelete is idempotent: session IDs are never reused, so a 404
// whose ID sits in the recently-deleted record is a retry of a delete
// that already landed and answers success again.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.DeleteSession(id); err != nil {
		if s.idemDeleted(id) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
			return
		}
		writeErr(w, statusFor(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}
