package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mindful/internal/fault"
	"mindful/internal/obs"
	"mindful/internal/serve/checkpoint"
)

// eventTypes returns the set of event types present in the log.
func eventTypes(log *obs.EventLog) map[string]int {
	types := make(map[string]int)
	for _, e := range log.Snapshot() {
		types[e.Type]++
	}
	return types
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp
}

func TestReadyz(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Ready() {
		t.Error("unstarted server reports ready")
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.ControlAddr()
	if resp := getJSON(t, base+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after Start = %d, want 200", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if srv.Ready() {
		t.Error("shut-down server reports ready")
	}
}

func TestSessionStatsEndpoint(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	cfg := testSessionConfig()
	cfg.Decoder = "kalman"
	info, err := createSession(base, CreateRequest{SessionConfig: cfg, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	conn, br, err := subscribe(srv.StreamAddr(), info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	// Drain to completion so the stats reflect a full run.
	for {
		if _, err := ReadRecord(br); err != nil {
			break
		}
	}
	waitState(t, base, info.ID, StateDone)

	var st SessionStats
	if resp := getJSON(t, base+"/api/sessions/"+info.ID+"/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if st.ID != info.ID || st.State != StateDone {
		t.Errorf("stats id/state = %s/%s", st.ID, st.State)
	}
	if st.LastActivityUnixNs == 0 {
		t.Error("stats last activity is zero")
	}
	if st.Published == 0 || st.DecodedSteps == 0 {
		t.Errorf("stats published/decoded = %d/%d, want nonzero", st.Published, st.DecodedSteps)
	}
	if st.DecodeMACs == 0 {
		t.Error("stats decode MACs is zero for a kalman session")
	}
	// The subscriber is already detached (stream finished), so the queue
	// list is empty; a still-attached subscriber must show up. Run a
	// second paused session to pin the attached shape.
	info2, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	conn2, _, err := subscribe(srv.StreamAddr(), info2.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	var st2 SessionStats
	getJSON(t, base+"/api/sessions/"+info2.ID+"/stats", &st2)
	if len(st2.Queues) != 1 {
		t.Fatalf("attached session has %d queues, want 1", len(st2.Queues))
	}
	q := st2.Queues[0]
	if q.Mode != "frames" || q.Capacity != DefaultQueueDepth || q.Depth != 0 || q.Dropped != 0 {
		t.Errorf("queue stats = %+v", q)
	}
	if resp := getJSON(t, base+"/api/sessions/nosuch/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing-session stats status = %d, want 404", resp.StatusCode)
	}
}

func TestStatsDeliveryLatency(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr()
	info, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig(), StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	conn, br, err := subscribe(srv.StreamAddr(), info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := post(base+"/api/sessions/"+info.ID+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		if _, err := ReadRecord(br); err != nil {
			break
		}
		records++
	}
	if records == 0 {
		t.Fatal("no records delivered")
	}
	var stats StatsResponse
	getJSON(t, base+"/api/stats", &stats)
	if stats.Delivered < int64(records) {
		t.Errorf("delivered = %d, want ≥ %d", stats.Delivered, records)
	}
	if stats.DeliveryLatencyP50Ms <= 0 {
		t.Errorf("p50 latency = %g, want > 0", stats.DeliveryLatencyP50Ms)
	}
	if stats.DeliveryLatencyP99Ms < stats.DeliveryLatencyP50Ms {
		t.Errorf("p99 %g < p50 %g", stats.DeliveryLatencyP99Ms, stats.DeliveryLatencyP50Ms)
	}
	if stats.DeliveryLatencyP999Ms < stats.DeliveryLatencyP99Ms {
		t.Errorf("p99.9 %g < p99 %g", stats.DeliveryLatencyP999Ms, stats.DeliveryLatencyP99Ms)
	}
}

// TestLifecycleEvents drives a session through its whole lifecycle and
// checks the flight recorder narrates it: create, pause, resume,
// snapshot, restore, delete, drain.
func TestLifecycleEvents(t *testing.T) {
	o := obs.New()
	srv := startServer(t, Config{Observer: o, TickInterval: time.Millisecond})
	base := "http://" + srv.ControlAddr()
	info, err := createSession(base, CreateRequest{SessionConfig: testSessionConfig(), StartPaused: false})
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	if err := post(base+"/api/sessions/"+id+"/pause", nil); err != nil {
		t.Fatal(err)
	}
	if err := post(base+"/api/sessions/"+id+"/resume", nil); err != nil {
		t.Fatal(err)
	}
	if err := post(base+"/api/sessions/"+id+"/pause", nil); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.session(id)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sess.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := srv.RestoreSession(blob, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.DeleteSession(restored.ID); err != nil {
		t.Fatal(err)
	}

	types := eventTypes(o.Events)
	for _, want := range []string{
		"session_create", "session_pause", "session_resume",
		"session_snapshot", "session_restore", "session_delete",
	} {
		if types[want] == 0 {
			t.Errorf("event log missing %q; have %v", want, types)
		}
	}
	// Shutdown (via Cleanup) drains the remaining session; check here so
	// the assertion runs before the observer goes out of scope.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if types := eventTypes(o.Events); types["session_drain"] == 0 {
		t.Errorf("event log missing session_drain after shutdown; have %v", types)
	}
	// Events must carry monotonic sequence numbers.
	evs := o.Events.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event seq not monotonic: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestFaultPathEvents runs a faulty session and checks the recorder
// captures the fault narrative: concealment runs, brownout onsets and
// ARQ budget exhaustions, each edge-triggered with a tick attribute.
func TestFaultPathEvents(t *testing.T) {
	o := obs.New()
	srv := startServer(t, Config{Observer: o})
	base := "http://" + srv.ControlAddr()
	p := fault.DefaultProfile()
	cfg := checkpoint.SessionConfig{
		Channels:         16,
		SampleRateHz:     2000,
		SampleBits:       10,
		QAMBits:          4,
		EbN0dB:           8, // noisy enough that retries exhaust
		Seed:             7,
		Ticks:            400,
		Faults:           &p,
		ARQMaxRetries:    1,
		ARQSlotTime:      time.Millisecond,
		ARQLatencyBudget: 4 * time.Millisecond,
		Concealment:      1, // hold
	}
	info, err := createSession(base, CreateRequest{SessionConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, base, info.ID, StateDone)
	types := eventTypes(o.Events)
	for _, want := range []string{"concealment_run", "brownout_onset", "arq_exhausted"} {
		if types[want] == 0 {
			t.Errorf("fault run recorded no %q events; have %v", want, types)
		}
	}
	// Every fault event names the session and carries a tick attribute.
	for _, e := range o.Events.Snapshot() {
		switch e.Type {
		case "concealment_run", "brownout_onset", "arq_exhausted":
			if e.Subject != info.ID {
				t.Errorf("%s subject = %q, want %q", e.Type, e.Subject, info.ID)
			}
			found := false
			for i := 0; i < e.NAttrs; i++ {
				if e.Attrs[i].Key == "tick" {
					found = true
				}
			}
			if !found {
				t.Errorf("%s event missing tick attr: %+v", e.Type, e)
			}
		}
	}
}
