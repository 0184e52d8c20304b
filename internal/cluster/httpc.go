package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mindful/internal/detrand"
	"mindful/internal/obs"
	"mindful/internal/serve"
)

// The front tier speaks to shards over their existing JSON/HTTP control
// planes — no private RPC channel, so an externally attached gateway is
// indistinguishable from a self-hosted one. Each cluster owns one
// shardClient: its transports are injectable (chaos tests swap in a
// fault-injecting RoundTripper), and every idempotent call is wrapped
// in capped exponential backoff with deterministic jitter. Calls whose
// blind retry could duplicate an effect either carry an Idempotency-Key
// the shard dedupes on (import, restore) or are not retried at all
// (create). Liveness probes use the much shorter probe timeout so a
// dead shard is declared dead in probe-time, not call-time.

// maxShardBody bounds any response body read from a shard (checkpoint
// blobs dominate; this matches the serve side's own body cap).
const maxShardBody = 16 << 20

// Retry defaults for the zero Config values.
const (
	// DefaultRetryMax is the retry budget per idempotent control call.
	DefaultRetryMax = 4
	// DefaultRetryBase is the first backoff step; each retry doubles it.
	DefaultRetryBase = 15 * time.Millisecond
	// DefaultRetryCap bounds a single backoff step.
	DefaultRetryCap = 250 * time.Millisecond
)

// statusError is a shard's non-2xx answer, preserved with its status
// code so the retry loop can tell transient (5xx) from semantic (4xx).
type statusError struct {
	op   string
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: %s: %s", e.op, e.msg)
}

// shardError converts a non-2xx shard response into a statusError
// carrying the shard's own message.
func shardError(op string, code int, body []byte) error {
	msg := string(bytes.TrimSpace(body))
	if len(msg) > 512 {
		msg = msg[:512]
	}
	if msg == "" {
		msg = http.StatusText(code)
	}
	return &statusError{op: op, code: code, msg: msg}
}

// shardClient is one front tier's control-plane client.
type shardClient struct {
	http  *http.Client
	probe *http.Client

	retryMax  int
	retryBase time.Duration
	retryCap  time.Duration

	// jitter derandomizes thundering-herd backoff deterministically:
	// detrand-seeded, so a fixed-seed chaos run replays the same waits.
	jmu    sync.Mutex
	jitter *detrand.Rand

	// tokens for Idempotency-Key headers: an instance nonce (wall clock
	// at construction) plus a counter, so a restarted front tier never
	// collides with tokens its predecessor left recorded on shards.
	tokenNonce int64
	tokenSeq   atomic.Uint64

	// stop is the owning cluster's stop channel: once it closes, a call
	// waiting out a backoff returns its last error instead of retrying
	// against shards that are shutting down.
	stop <-chan struct{}

	mRetries *obs.Counter // nil-safe
	mGiveups *obs.Counter
}

// newShardClient builds the client from the cluster config (defaults
// applied by the caller), the cluster's stop channel and optional
// metrics counters.
func newShardClient(cfg Config, stop <-chan struct{}, retries, giveups *obs.Counter) *shardClient {
	retryMax := cfg.RetryMax
	if retryMax == 0 {
		retryMax = DefaultRetryMax
	}
	if retryMax < 0 {
		retryMax = 0
	}
	base := cfg.RetryBase
	if base <= 0 {
		base = DefaultRetryBase
	}
	ceil := cfg.RetryCap
	if ceil <= 0 {
		ceil = DefaultRetryCap
	}
	return &shardClient{
		http:       &http.Client{Timeout: 10 * time.Second, Transport: cfg.Transport},
		probe:      &http.Client{Timeout: DefaultProbeTimeout, Transport: cfg.ProbeTransport},
		retryMax:   retryMax,
		retryBase:  base,
		retryCap:   ceil,
		jitter:     detrand.New(cfg.RetrySeed),
		tokenNonce: time.Now().UnixNano(),
		stop:       stop,
		mRetries:   retries,
		mGiveups:   giveups,
	}
}

// nextToken mints one Idempotency-Key, reused across every retry of the
// call it was minted for.
func (cl *shardClient) nextToken() string {
	return fmt.Sprintf("%x.%d", cl.tokenNonce, cl.tokenSeq.Add(1))
}

// backoff returns the wait before the n-th retry (1-based): capped
// exponential with deterministic jitter in [d/2, d).
func (cl *shardClient) backoff(n int) time.Duration {
	d := cl.retryBase << (n - 1)
	if d <= 0 || d > cl.retryCap {
		d = cl.retryCap
	}
	cl.jmu.Lock()
	f := cl.jitter.Float64()
	cl.jmu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// wait sleeps d and reports true, or reports false as soon as the
// cluster stops.
func (cl *shardClient) wait(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cl.stop:
		return false
	}
}

// retriable reports whether an attempt's failure is worth another try:
// transport errors and 5xx answers are transient; 4xx answers are the
// shard telling us the request itself is wrong.
func retriable(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code >= 500
	}
	return true
}

// call runs one control-plane operation: build the request fresh per
// attempt (bodies must be replayable), bound the response read, and
// retry transient failures up to the budget. hdr entries are applied to
// every attempt — the Idempotency-Key path. A backoff cut short by the
// cluster stopping returns the last attempt's error.
func (cl *shardClient) call(op, method, url string, body []byte, contentType string, hdr map[string]string, wantStatus int, retry bool) ([]byte, error) {
	attempts := 1
	if retry {
		attempts += cl.retryMax
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			cl.mRetries.Inc()
			if !cl.wait(cl.backoff(n)) {
				return nil, lastErr
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := cl.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		buf, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
		resp.Body.Close()
		if err != nil {
			// A body severed mid-read is a transport failure, not an answer.
			lastErr = err
			continue
		}
		if resp.StatusCode != wantStatus {
			lastErr = shardError(op, resp.StatusCode, buf)
			if !retriable(lastErr) {
				return nil, lastErr
			}
			continue
		}
		return buf, nil
	}
	if retry {
		cl.mGiveups.Inc()
	}
	return nil, lastErr
}

// callJSON is call with a JSON-decoded response (skipped when out is
// nil).
func (cl *shardClient) callJSON(op, method, url string, body []byte, contentType string, hdr map[string]string, wantStatus int, out any, retry bool) error {
	buf, err := cl.call(op, method, url, body, contentType, hdr, wantStatus, retry)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf, out)
}

// createSession places a session on a shard. The Idempotency-Key makes
// the retries at-most-once: a response lost after the shard created the
// session replays the original answer instead of creating a twin.
func (cl *shardClient) createSession(base string, reqBody serve.CreateRequest) (serve.SessionInfo, error) {
	buf, err := json.Marshal(reqBody)
	if err != nil {
		return serve.SessionInfo{}, err
	}
	var info serve.SessionInfo
	hdr := map[string]string{"Idempotency-Key": cl.nextToken()}
	err = cl.callJSON("create", http.MethodPost, base+"/api/sessions",
		buf, "application/json", hdr, http.StatusCreated, &info, true)
	return info, err
}

// isNotFound reports whether a shard definitively answered "no such
// session" — as opposed to a transport failure, where the session may
// be fine and the network lying.
func isNotFound(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.code == http.StatusNotFound
}

// listSessions fetches every session a shard hosts.
func (cl *shardClient) listSessions(base string) ([]serve.SessionInfo, error) {
	var infos []serve.SessionInfo
	err := cl.callJSON("list", http.MethodGet, base+"/api/sessions",
		nil, "", nil, http.StatusOK, &infos, true)
	return infos, err
}

// getSession fetches a session's info from its shard.
func (cl *shardClient) getSession(base, id string) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := cl.callJSON("get "+id, http.MethodGet, base+"/api/sessions/"+id,
		nil, "", nil, http.StatusOK, &info, true)
	return info, err
}

// deleteSession removes a session from a shard. Safe to retry: the
// shard answers success again for recently deleted IDs.
func (cl *shardClient) deleteSession(base, id string) error {
	return cl.callJSON("delete "+id, http.MethodDelete, base+"/api/sessions/"+id,
		nil, "", nil, http.StatusOK, nil, true)
}

// pauseSession suspends a session's tick loop (idempotent on the
// shard: pausing a paused session is a no-op).
func (cl *shardClient) pauseSession(base, id string) error {
	return cl.callJSON("pause "+id, http.MethodPost, base+"/api/sessions/"+id+"/pause",
		nil, "", nil, http.StatusOK, nil, true)
}

// resumeSession releases a paused session (idempotent likewise).
func (cl *shardClient) resumeSession(base, id string) error {
	return cl.callJSON("resume "+id, http.MethodPost, base+"/api/sessions/"+id+"/resume",
		nil, "", nil, http.StatusOK, nil, true)
}

// exportSession drives the migration source: pause + snapshot, returned
// as an encoded wire.Envelope stamped with the cluster key. Re-running
// it re-snapshots the still-paused session to the identical envelope,
// so it retries freely.
func (cl *shardClient) exportSession(base, id, key string) ([]byte, error) {
	return cl.call("export "+id, http.MethodPost,
		base+"/api/sessions/"+id+"/export?key="+key,
		nil, "application/octet-stream", nil, http.StatusOK, true)
}

// importSession drives the migration target: restore the envelope's
// checkpoint paused. The Idempotency-Key makes the retries at-most-once
// — a response lost after the shard restored does not restore twice.
func (cl *shardClient) importSession(base string, env []byte) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	hdr := map[string]string{"Idempotency-Key": cl.nextToken()}
	err := cl.callJSON("import", http.MethodPost, base+"/api/sessions/import",
		env, "application/octet-stream", hdr, http.StatusCreated, &info, true)
	return info, err
}

// checkpointSession snapshots a session without pausing it — the
// periodic-checkpoint feed behind kill recovery. The session's info is
// fetched alongside the blob so the store records the tick and run
// state the checkpoint describes.
func (cl *shardClient) checkpointSession(base, id string) ([]byte, serve.SessionInfo, error) {
	blob, err := cl.call("checkpoint "+id, http.MethodGet,
		base+"/api/sessions/"+id+"/checkpoint",
		nil, "", nil, http.StatusOK, true)
	if err != nil {
		return nil, serve.SessionInfo{}, err
	}
	info, err := cl.getSession(base, id)
	if err != nil {
		return nil, serve.SessionInfo{}, err
	}
	return blob, info, nil
}

// restoreSession replays a stored checkpoint onto a shard (paused when
// startPaused) — the kill-recovery path, idempotency-keyed like import.
func (cl *shardClient) restoreSession(base string, blob []byte, startPaused bool) (serve.SessionInfo, error) {
	url := base + "/api/sessions/restore?start_paused=" + strconv.FormatBool(startPaused)
	var info serve.SessionInfo
	hdr := map[string]string{"Idempotency-Key": cl.nextToken()}
	err := cl.callJSON("restore", http.MethodPost, url,
		blob, "application/octet-stream", hdr, http.StatusCreated, &info, true)
	return info, err
}

// drainShard toggles a shard's draining flag over HTTP (works for
// attached shards the front tier does not host in-process).
func (cl *shardClient) drainShard(base string, on bool) error {
	return cl.callJSON("drain", http.MethodPost, base+"/api/drain?on="+strconv.FormatBool(on),
		nil, "", nil, http.StatusOK, nil, true)
}

// probeReady reports whether a shard answers /readyz with 200 — false
// for dead AND draining shards (neither should receive new placements).
// Probes are single-shot: the probing loops aggregate over time.
func (cl *shardClient) probeReady(base string) bool {
	return cl.probeOK(base + "/readyz")
}

// probeAlive reports whether a shard's control plane answers /healthz
// at all — true for draining shards (alive, just not placeable), false
// only when the process is gone. The health loop keys shard-death
// detection off this, not probeReady, so a drain never looks like a
// crash.
func (cl *shardClient) probeAlive(base string) bool {
	return cl.probeOK(base + "/healthz")
}

func (cl *shardClient) probeOK(url string) bool {
	resp, err := cl.probe.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
