package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// readToEOF reads records until the stream ends and fails the test
// unless it ends with a clean EOF.
func readToEOF(t *testing.T, br *bufio.Reader) []uint64 {
	t.Helper()
	var ticks []uint64
	for {
		rec, err := ReadRecord(br)
		if err == io.EOF {
			return ticks
		}
		if err != nil {
			t.Fatalf("stream ended with %v after %d records, want EOF", err, len(ticks))
		}
		ticks = append(ticks, rec.Tick)
	}
}

// checkTicks fails unless ticks are exactly from, from+1, …, to-1.
func checkTicks(t *testing.T, ticks []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(ticks)) != to-from {
		t.Fatalf("read %d records, want ticks %d…%d (%d)", len(ticks), from, to-1, to-from)
	}
	for i, tick := range ticks {
		if tick != from+uint64(i) {
			t.Fatalf("record %d is tick %d, want %d", i, tick, from+uint64(i))
		}
	}
}

// TestDeleteFlushesSubscriber: deleting a session ends its streams the
// way finishing does — every record already published to a subscriber
// is delivered, then EOF — even when the subscriber has not read any of
// them yet. The subscriber's connection is a synchronous pipe, so the
// records sit in its queue, not in a socket buffer, when the delete
// lands.
func TestDeleteFlushesSubscriber(t *testing.T) {
	srv := startServer(t, Config{TickInterval: time.Millisecond})
	cfg := testSessionConfig()
	cfg.Ticks = 0 // unbounded: only the delete ends it
	sess, err := srv.CreateSession(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	srv.wg.Add(1)
	go srv.serveStream(server)
	client.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(client, "SUB %s\n", sess.ID)
	br := bufio.NewReader(client)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK ") {
		t.Fatalf("subscribe: %q, %v", line, err)
	}

	if err := sess.resume(); err != nil {
		t.Fatal(err)
	}
	for sess.published.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	if err := sess.pause(); err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock() // the pause lands at a tick boundary
	published := uint64(sess.p.Tick())
	sess.mu.Unlock()
	if err := srv.DeleteSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	checkTicks(t, readToEOF(t, br), 0, published)
}

// TestImportHoldsForFirstSubscriber: an imported session keeps what it
// publishes until its first subscriber attaches, and that subscriber
// reads ticks K…end, then EOF — whether it attaches while the import
// runs (racing the tick loop's publishes) or after it finished, when a
// done session still accepts it. A second subscriber to the done
// session is refused.
func TestImportHoldsForFirstSubscriber(t *testing.T) {
	for _, afterDone := range []bool{false, true} {
		t.Run(fmt.Sprintf("afterDone=%v", afterDone), func(t *testing.T) {
			srv := startServer(t, Config{TickInterval: time.Millisecond})
			base := "http://" + srv.ControlAddr()
			cfg := testSessionConfig()
			info, err := createSession(base, CreateRequest{SessionConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // let it get mid-stream
			env, err := exportEnvelope(base, info.ID, "c000001")
			if err != nil {
				t.Fatal(err)
			}
			if env.Tick == 0 || env.Tick >= uint64(cfg.Ticks) {
				t.Fatalf("exported at tick %d, want mid-run", env.Tick)
			}
			imported, err := importEnvelope(base, env)
			if err != nil {
				t.Fatal(err)
			}
			if err := del(base + "/api/sessions/" + info.ID); err != nil {
				t.Fatal(err)
			}
			if err := post(base+"/api/sessions/"+imported.ID+"/resume", nil); err != nil {
				t.Fatal(err)
			}
			if afterDone {
				waitState(t, base, imported.ID, StateDone)
			}

			conn, br, err := subscribe(srv.StreamAddr(), imported.ID, "")
			if err != nil {
				t.Fatalf("first subscriber to the import: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			checkTicks(t, readToEOF(t, br), env.Tick, uint64(cfg.Ticks))

			waitState(t, base, imported.ID, StateDone)
			if c, _, err := subscribe(srv.StreamAddr(), imported.ID, ""); err == nil {
				c.Close()
				t.Fatal("second subscriber to a done session accepted")
			}
		})
	}
}
