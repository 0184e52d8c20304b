package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mindful/internal/cluster"
	"mindful/internal/serve"
	"mindful/internal/serve/checkpoint"
)

// servingParams sizes a serving workload. shards = 0 is one in-process
// gateway; shards > 0 is a front tier over that many gateways, with the
// first session live-migrated round-robin every migrateEvery.
type servingParams struct {
	sessions     int
	ticks        int
	interval     time.Duration
	shards       int
	migrations   int
	migrateEvery time.Duration
}

func serveRealtimeParams(tiny bool) servingParams {
	if tiny {
		return servingParams{sessions: 4, ticks: 100, interval: 500 * time.Microsecond}
	}
	return servingParams{sessions: 16, ticks: 4000, interval: 500 * time.Microsecond}
}

func clusterMigrateParams(tiny bool) servingParams {
	if tiny {
		return servingParams{sessions: 4, ticks: 200, interval: 500 * time.Microsecond,
			shards: 3, migrations: 3, migrateEvery: 20 * time.Millisecond}
	}
	return servingParams{sessions: 24, ticks: 4000, interval: 500 * time.Microsecond,
		shards: 3, migrations: 24, migrateEvery: 100 * time.Millisecond}
}

// pollEvery is the done-poll period of the pace measurement.
const pollEvery = 10 * time.Millisecond

// sessionConfig is session i's pipeline: the fleet workloads' implant,
// on its own seed.
func sessionConfig(seed int64, i, ticks int) checkpoint.SessionConfig {
	return checkpoint.SessionConfig{
		Channels:     32,
		SampleRateHz: 2000,
		SampleBits:   10,
		QAMBits:      4,
		EbN0dB:       12,
		Seed:         seed + int64(i),
		Ticks:        ticks,
	}
}

// servingRunner drives a gateway or a cluster through its control and
// data planes: one sequential keep-alive HTTP client and one subscriber
// stream per CPU beyond the first.
type servingRunner struct {
	p    servingParams
	seed int64
	pin  string
	// refs are the sessions' digests from uninterrupted in-process runs;
	// every served session must match its reference.
	refs []uint64
}

func openServing(p servingParams, seed int64, pin string) (runner, error) {
	r := &servingRunner{p: p, seed: seed, pin: pin, refs: make([]uint64, p.sessions)}
	for i := range r.refs {
		p, err := checkpoint.NewPipeline(sessionConfig(seed, i, r.p.ticks), 0)
		if err != nil {
			return nil, err
		}
		for t := 0; t < r.p.ticks; t++ {
			if err := p.Step(); err != nil {
				p.Close()
				return nil, err
			}
		}
		r.refs[i] = p.Result().Digest
		p.Close()
	}
	return r, nil
}

func (r *servingRunner) workers() int { return 0 }

func (r *servingRunner) layer() string {
	if r.p.shards > 0 {
		return "cluster"
	}
	return "serve"
}

func (r *servingRunner) subscribers() int {
	return min(max(1, runtime.NumCPU()-1), r.p.sessions)
}

// system is a booted gateway or front tier.
type system struct {
	ctl    string // control-plane base URL
	stream string // address subscribers dial
	cl     *cluster.Cluster
	shards []string
	stop   func(context.Context) error
}

func (r *servingRunner) boot() (*system, error) {
	if r.p.shards == 0 {
		srv, err := serve.New(serve.Config{TickInterval: r.p.interval})
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		return &system{ctl: "http://" + srv.ControlAddr(), stream: srv.StreamAddr(), stop: srv.Shutdown}, nil
	}
	// The front tier's periodic checkpoint, health and janitor loops are
	// off, so every control call during the run is one the bench made.
	c, err := cluster.New(cluster.Config{
		CheckpointInterval: -1,
		HealthInterval:     -1,
		ReconcileInterval:  -1,
		Shard:              serve.Config{TickInterval: r.p.interval},
	})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	sys := &system{ctl: "http://" + c.ControlAddr(), stream: c.StreamAddr(), cl: c, stop: c.Shutdown}
	for i := 0; i < r.p.shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		if err := c.AddShard(id); err != nil {
			sys.close()
			return nil, err
		}
		sys.shards = append(sys.shards, id)
	}
	return sys, nil
}

func (s *system) close() {
	if s.cl != nil {
		// The front tier's shard client uses http.DefaultTransport. A
		// connection it dialed for a request that another connection then
		// served sits in the idle pool never used, and a shard's
		// http.Server.Shutdown waits 5 s for such a connection. Closing
		// the pool first lets the shards stop at once.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.stop(ctx)
}

// session is one created session as the control plane named it.
type session struct {
	id    string // cluster key, or the gateway's session ID
	shard string
}

// setupState is everything set-up produced.
type setupState struct {
	sys      *system
	client   *http.Client
	sessions []session
	conns    []net.Conn
	readers  []*bufio.Reader
	createMs []float64
}

func (st *setupState) close() {
	for _, c := range st.conns {
		c.Close()
	}
	st.client.CloseIdleConnections()
	st.sys.close()
}

// start boots the system, creates every session paused and attaches the
// subscribers, so no frame is published before the run begins.
func (r *servingRunner) start(tr *tracer, trace string, root int64) (*setupState, error) {
	layer := r.layer()
	id := tr.begin(layer+".start", trace, root)
	sys, err := r.boot()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	st := &setupState{
		sys: sys,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
		}},
	}
	for i := 0; i < r.p.sessions; i++ {
		sid := tr.begin(layer+".create", fmt.Sprintf("session-%d", i), root)
		t0 := time.Now()
		var info cluster.Info
		err := st.call(http.MethodPost, "/api/sessions",
			serve.CreateRequest{SessionConfig: sessionConfig(r.seed, i, r.p.ticks), StartPaused: true}, &info)
		st.createMs = append(st.createMs, ms(time.Since(t0)))
		tr.end(sid)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("create session %d: %w", i, err)
		}
		s := session{id: info.Key, shard: info.Shard}
		if s.id == "" {
			s.id = info.ID
		}
		st.sessions = append(st.sessions, s)
	}
	for i := 0; i < r.subscribers(); i++ {
		sid := tr.begin("serve.subscribe", fmt.Sprintf("session-%d", i), root)
		conn, br, err := serve.SubscribeFollow(sys.stream, st.sessions[i].id, "", 4)
		tr.end(sid)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("subscribe session %d: %w", i, err)
		}
		st.conns = append(st.conns, conn)
		st.readers = append(st.readers, br)
	}
	return st, nil
}

// call makes one control-plane request and decodes the JSON answer.
func (st *setupState) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, st.sys.ctl+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (r *servingRunner) setup() (time.Duration, error) {
	start := time.Now()
	st, err := r.start(nil, "", 0)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	st.close()
	return d, nil
}

func (r *servingRunner) iterate(tr *tracer, trace string, _ float64) (*iteration, error) {
	it := newIteration(tr != nil)
	root := tr.begin("bench.iteration", trace, 0)
	defer tr.end(root)
	layer := r.layer()

	baseG := runtime.NumGoroutine()
	t0 := time.Now()
	st, err := r.start(tr, trace, root)
	if err != nil {
		return nil, err
	}
	defer st.close()
	it.samples["setup_s"] = []float64{time.Since(t0).Seconds()}
	if layer == "cluster" {
		it.samples["cluster_create_ms"] = st.createMs
	} else {
		it.samples["create_ms"] = st.createMs
	}

	// quit stops the readers and the migration driver when the iteration
	// gives up; shutting the system down ends their streams.
	deadline := time.Now().Add(time.Duration(r.p.ticks)*r.p.interval*20 + 30*time.Second)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	abort := func(err error) (*iteration, error) {
		close(quit)
		st.sys.close()
		wg.Wait()
		return nil, err
	}
	streams := make([]*stream, len(st.conns))
	for i := range streams {
		s := &stream{ticks: r.p.ticks}
		streams[i] = s
		var redial func() (net.Conn, *bufio.Reader, error)
		if st.sys.cl != nil {
			redial = st.redial(st.sessions[i].id)
		}
		wg.Add(1)
		go func(conn net.Conn, br *bufio.Reader) {
			defer wg.Done()
			s.read(conn, br, redial, deadline, quit)
		}(st.conns[i], st.readers[i])
	}
	st.conns = nil // the readers own and close them now

	cpu0 := cpuTime()
	resumeNs := make([]int64, r.p.sessions)
	for i, s := range st.sessions {
		sid := tr.begin(layer+".resume", fmt.Sprintf("session-%d", i), root)
		resumeNs[i] = time.Now().UnixNano()
		err := st.call(http.MethodPost, "/api/sessions/"+s.id+"/resume", nil, nil)
		tr.end(sid)
		if err != nil {
			return abort(fmt.Errorf("resume %s: %w", s.id, err))
		}
	}
	first := time.Unix(0, resumeNs[0])

	var mig migrationLog
	if st.sys.cl != nil && r.p.migrations > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mig = r.migrate(st, streams[0], first, quit, tr, root)
		}()
	}

	maxG := 0
	var lag []float64
	pollID := tr.begin(layer+".poll", trace, root)
	doneAt, err := pollDone(first, r.p.sessions, deadline, &lag, func(i int) bool {
		maxG = max(maxG, runtime.NumGoroutine())
		var info cluster.Info
		return st.call(http.MethodGet, "/api/sessions/"+st.sessions[i].id, nil, &info) == nil &&
			info.State == serve.StateDone
	})
	tr.end(pollID)
	cpu := cpuTime() - cpu0
	if err != nil {
		return abort(err)
	}
	wg.Wait()

	run := doneAt.Sub(first).Seconds()
	totalTicks := float64(r.p.sessions * r.p.ticks)
	it.values["pace_ratio"] = float64(r.p.ticks) * r.p.interval.Seconds() / run
	it.values["serve.goroutines_per_session"] = float64(maxG-baseG) / float64(r.p.sessions)
	it.values["serve.cpu_us_per_tick"] = float64(cpu.Microseconds()) / totalTicks

	r.checkSessions(it, st, run)
	for i, s := range streams {
		r.scoreStream(it, i, s, resumeNs[i])
	}
	if st.sys.cl != nil {
		it.samples["driver_lag_ms"] = mig.lagMs
		it.samples["migrate_ms"] = mig.migrateMs
		it.attempted += int64(mig.attempted)
		if mig.failed > 0 {
			it.fail(int64(mig.failed), "%d of %d migrations failed: %v", mig.failed, mig.attempted, mig.firstErr)
		}
		it.values["cluster.migrations_failed"] = float64(mig.failed)
		r.scoreGaps(it, streams[0], tr, root)
	} else {
		it.samples["driver_lag_ms"] = lag
	}
	return it, nil
}

// checkSessions reads every session's final info: each must be done
// with its reference digest, and the pinned combined digest must hold at
// the default seed.
func (r *servingRunner) checkSessions(it *iteration, st *setupState, run float64) {
	h := fnv.New64a()
	var frames, dropped, evicted int64
	for i, s := range st.sessions {
		it.attempted++
		var info cluster.Info
		if err := st.call(http.MethodGet, "/api/sessions/"+s.id, nil, &info); err != nil {
			it.fail(1, "session %d: %v", i, err)
			continue
		}
		frames += info.Frames
		dropped += info.Dropped
		evicted += info.Evicted
		got, _ := strconv.ParseUint(info.Digest, 10, 64)
		h.Write(binary.BigEndian.AppendUint64(nil, got))
		if info.State != serve.StateDone || info.Error != "" || got != r.refs[i] {
			it.fail(1, "session %d: state %s error %q digest %d, reference %d", i, info.State, info.Error, got, r.refs[i])
		}
	}
	it.frames, it.busy = float64(frames), run
	it.values["serve.dropped"] = float64(dropped)
	it.values["serve.evicted"] = float64(evicted)
	it.digest = fmt.Sprintf("sessions=%d", h.Sum64())
	if r.pin != "" && it.digest != r.pin {
		it.fail(1, "digest %q, pinned %q", it.digest, r.pin)
	}
}

// scoreStream turns one subscriber's records into lateness samples and
// checks the stream: every tick read once, in order, and — when nothing
// was skipped across a migration — the same bytes the session digested.
func (r *servingRunner) scoreStream(it *iteration, i int, s *stream, resumeNs int64) {
	period := r.p.interval.Nanoseconds()
	it.attempted += int64(r.p.ticks)
	if s.err != nil {
		it.fail(1, "subscriber %d: %v", i, s.err)
	}
	if s.missing > 0 {
		it.fail(s.missing, "subscriber %d: %d records missing", i, s.missing)
	}
	if s.skipped() == 0 && s.missing == 0 && s.digest.Sum64() != r.refs[i] {
		it.fail(1, "subscriber %d: stream digest %d, reference %d", i, s.digest.Sum64(), r.refs[i])
	}
	for k, rec := range s.recs {
		due := resumeNs + int64(rec.tick)*period
		it.samples["lateness_ms"] = append(it.samples["lateness_ms"], nsMs(rec.readNs-due))
		it.samples["due_to_publish_ms"] = append(it.samples["due_to_publish_ms"], nsMs(rec.publishNs-due))
		it.samples["publish_to_read_ms"] = append(it.samples["publish_to_read_ms"], nsMs(rec.readNs-rec.publishNs))
		if k > 0 && rec.tick == s.recs[k-1].tick+1 {
			it.samples["tick_period_ms"] = append(it.samples["tick_period_ms"], nsMs(rec.publishNs-s.recs[k-1].publishNs))
		}
	}
}

// scoreGaps splits every migration blackout the subscriber saw into its
// three consecutive parts — noticing the sever, resubscribing, waiting
// for the first record — which sum to the blackout exactly.
func (r *servingRunner) scoreGaps(it *iteration, s *stream, tr *tracer, root int64) {
	for k, g := range s.gaps {
		it.samples["blackout_ms"] = append(it.samples["blackout_ms"], nsMs(g.firstNs-g.lastNs))
		it.samples["sever_detect_ms"] = append(it.samples["sever_detect_ms"], nsMs(g.eofNs-g.lastNs))
		it.samples["resubscribe_ms"] = append(it.samples["resubscribe_ms"], nsMs(g.okNs-g.eofNs))
		it.samples["first_record_ms"] = append(it.samples["first_record_ms"], nsMs(g.firstNs-g.okNs))
		trace := fmt.Sprintf("migration-%d", k)
		b := tr.add("cluster.blackout", trace, root, g.lastNs, g.firstNs)
		tr.add("cluster.sever_detect", trace, b, g.lastNs, g.eofNs)
		tr.add("cluster.resubscribe", trace, b, g.eofNs, g.okNs)
		tr.add("cluster.first_record", trace, b, g.okNs, g.firstNs)
	}
	it.values["cluster.resubscribes"] = float64(len(s.gaps))
	it.values["cluster.records_skipped"] = float64(s.skipped())
}

// migrationLog is what the migration driver did.
type migrationLog struct {
	attempted, failed int
	firstErr          error
	lagMs, migrateMs  []float64
}

// migrate live-migrates the first session round-robin across the shards
// on an open-loop schedule, one migration every migrateEvery after the
// first resume, until the schedule ends or the session finishes.
func (r *servingRunner) migrate(st *setupState, watch *stream, first time.Time, quit <-chan struct{}, tr *tracer, root int64) migrationLog {
	var log migrationLog
	key, cur := st.sessions[0].id, st.sessions[0].shard
	for m := 0; m < r.p.migrations; m++ {
		due := first.Add(time.Duration(m+1) * r.p.migrateEvery)
		select {
		case <-quit:
			return log
		case <-time.After(time.Until(due)):
		}
		if watch.finished.Load() {
			break
		}
		log.lagMs = append(log.lagMs, ms(time.Since(due)))
		target := st.sys.shards[0]
		for j, id := range st.sys.shards {
			if id == cur {
				target = st.sys.shards[(j+1)%len(st.sys.shards)]
			}
		}
		id := tr.begin("cluster.migrate", fmt.Sprintf("migration-%d", m), root)
		t0 := time.Now()
		err := st.sys.cl.Migrate(key, target)
		log.migrateMs = append(log.migrateMs, ms(time.Since(t0)))
		tr.end(id)
		log.attempted++
		if err != nil {
			log.failed++
			if log.firstErr == nil {
				log.firstErr = err
			}
			continue
		}
		cur = target
	}
	return log
}

// pollDone polls on an open-loop schedule, every pollEvery from start,
// until isDone has reported every session done. Sessions are checked in
// order and never again once done, so a poll costs one call until the
// end. It returns the time of the poll that saw the last one finish and
// appends each poll's lateness against its schedule to lag.
func pollDone(start time.Time, n int, deadline time.Time, lag *[]float64, isDone func(i int) bool) (time.Time, error) {
	next := 0
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * pollEvery)
		time.Sleep(time.Until(due))
		*lag = append(*lag, ms(time.Since(due)))
		for next < n && isDone(next) {
			next++
		}
		if next == n {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("session %d not done by the deadline", next)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsMs(ns int64) float64 { return float64(ns) / 1e6 }
