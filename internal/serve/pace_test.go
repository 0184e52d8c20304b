package serve

import (
	"net/http"
	"testing"
	"time"

	"mindful/internal/serve/checkpoint"
)

// Pace test sizing: a few sessions at the paper's 2 kHz ECoG clock.
const (
	paceSessions = 4
	paceTicks    = 400
	paceInterval = 500 * time.Microsecond
	// pauseTicks is the pause subtest's longer run: it pauses once the
	// poller sees tick pauseTicks/10, which leaves 450 ms of schedule
	// for a descheduled poller to wake up in before the sessions finish.
	pauseTicks = 1000
	// paceAttempts bounds the retries of the upper timing bound only: a
	// loop that really drifts misses it on every attempt, a scheduler
	// hiccup on a busy machine does not.
	paceAttempts = 3
)

func paceConfig(i, ticks int) checkpoint.SessionConfig {
	return checkpoint.SessionConfig{
		Channels:     32,
		SampleRateHz: 2000,
		SampleBits:   10,
		QAMBits:      4,
		EbN0dB:       12,
		Seed:         int64(100 + i),
		Ticks:        ticks,
	}
}

// paceGateway boots a paced gateway with paceSessions sessions of the
// given length created paused.
func paceGateway(t *testing.T, ticks int) (*Server, []*Session) {
	t.Helper()
	srv := startServer(t, Config{TickInterval: paceInterval})
	sessions := make([]*Session, paceSessions)
	for i := range sessions {
		sess, err := srv.CreateSession(paceConfig(i, ticks), true)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	return srv, sessions
}

func resumeAll(t *testing.T, sessions []*Session) {
	t.Helper()
	for _, sess := range sessions {
		if err := sess.resume(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitDone blocks until every session's tick loop has exited.
func waitDone(sessions []*Session) {
	for _, sess := range sessions {
		<-sess.done
	}
}

// finishPaced checks finished sessions: each digest against an
// uninterrupted in-process run, and the tick-lateness histogram's count
// against the ticks stepped.
func finishPaced(t *testing.T, srv *Server, sessions []*Session, ticks int) {
	t.Helper()
	for i, sess := range sessions {
		info := sess.info()
		if info.State != StateDone || info.Tick != ticks {
			t.Fatalf("session %d: %s at tick %d, want done at %d", i, info.State, info.Tick, ticks)
		}
		if want := digestAfter(t, paceConfig(i, ticks), ticks); info.Digest != want {
			t.Errorf("session %d: digest %s, want %s", i, info.Digest, want)
		}
	}
	if got, want := srv.tickLateness.Count(), int64(paceSessions*ticks); got != want {
		t.Errorf("tick-lateness observations = %d, want one per tick stepped (%d)", got, want)
	}
}

// TestTickSchedulePace pins the fixed-rate tick schedule: paced sessions
// finish in their nominal time — not free-running, and not stretched by
// the step and the timer's overshoot on every tick — and a pause banks
// no burst of catch-up ticks.
func TestTickSchedulePace(t *testing.T) {
	t.Run("steady", func(t *testing.T) {
		ideal := time.Duration(paceTicks) * paceInterval
		var ratios []float64
		for attempt := 0; attempt < paceAttempts; attempt++ {
			srv, sessions := paceGateway(t, paceTicks)
			start := time.Now()
			resumeAll(t, sessions)
			waitDone(sessions)
			elapsed := time.Since(start)
			finishPaced(t, srv, sessions, paceTicks)
			// Tick 0 is due at the resume, tick 399 at 399 intervals later.
			if elapsed < (paceTicks-1)*paceInterval {
				t.Fatalf("%d ticks took %v, under %v: the loop is free-running",
					paceTicks, elapsed, (paceTicks-1)*paceInterval)
			}
			checkTickLatenessStats(t, srv)
			ratio := float64(elapsed) / float64(ideal)
			ratios = append(ratios, ratio)
			if ratio <= 1.5 {
				t.Logf("elapsed/ideal = %.3f (attempt %d)", ratio, attempt+1)
				return
			}
		}
		t.Fatalf("elapsed/ideal = %.3v on every attempt, want ≤ 1.5: the tick cadence drifts", ratios)
	})

	t.Run("free-run", func(t *testing.T) {
		srv := startServer(t, Config{})
		sess, err := srv.CreateSession(paceConfig(0, paceTicks), false)
		if err != nil {
			t.Fatal(err)
		}
		<-sess.done
		if n := srv.tickLateness.Count(); n != 0 {
			t.Errorf("free-run gateway observed %d tick latenesses, want none", n)
		}
	})

	t.Run("pause", func(t *testing.T) {
		srv, sessions := paceGateway(t, pauseTicks)
		resumeAll(t, sessions)
		for sessions[0].info().Tick < pauseTicks/10 {
			time.Sleep(time.Millisecond)
		}
		for _, sess := range sessions {
			if err := sess.pause(); err != nil {
				t.Fatal(err)
			}
		}
		remaining := 0
		for _, sess := range sessions {
			remaining = max(remaining, pauseTicks-sess.info().Tick)
		}
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		resumeAll(t, sessions)
		waitDone(sessions)
		elapsed := time.Since(start)
		finishPaced(t, srv, sessions, pauseTicks)
		if floor := time.Duration(0.9 * float64(time.Duration(remaining)*paceInterval)); elapsed < floor {
			t.Fatalf("%d ticks after a 50 ms pause took %v, under %v: the pause banked ticks",
				remaining, elapsed, floor)
		}
	})
}

// checkTickLatenessStats reads the tick-lateness percentiles through
// GET /api/stats.
func checkTickLatenessStats(t *testing.T, srv *Server) {
	t.Helper()
	var stats StatsResponse
	resp := getJSON(t, "http://"+srv.ControlAddr()+"/api/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats.TickLatenessP50Ms <= 0 || stats.TickLatenessP99Ms < stats.TickLatenessP50Ms {
		t.Errorf("tick lateness p50/p99 = %g/%g ms, want 0 < p50 ≤ p99",
			stats.TickLatenessP50Ms, stats.TickLatenessP99Ms)
	}
}
