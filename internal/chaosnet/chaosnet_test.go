package chaosnet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestScale mirrors fault.Profile.Scale semantics: probabilities scale
// and clamp, durations are untouched, Scale(0) disables everything.
func TestScale(t *testing.T) {
	p := DefaultProfile()
	zero := p.Scale(0)
	if zero.Drop != 0 || zero.Reset != 0 || zero.Cut != 0 || zero.Delay != 0 || zero.Partition != 0 {
		t.Fatalf("Scale(0) left probabilities: %+v", zero)
	}
	if zero.DelayMax != p.DelayMax || zero.PartitionFor != p.PartitionFor {
		t.Fatalf("Scale(0) changed durations: %+v", zero)
	}
	half := p.Scale(0.5)
	if half.Drop != p.Drop*0.5 || half.Partition != p.Partition*0.5 {
		t.Fatalf("Scale(0.5) wrong: %+v", half)
	}
	big := p.Scale(100)
	if big.Drop != 1 || big.Delay != 1 {
		t.Fatalf("Scale(100) should clamp to 1: %+v", big)
	}
	if neg := p.Scale(-3); neg.Drop != 0 {
		t.Fatalf("Scale(-3) should clamp to 0: %+v", neg)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
	bad := []Profile{
		{Drop: 1.5},
		{Reset: -0.1},
		{DelayMin: -time.Second},
		{DelayMin: time.Second, DelayMax: time.Millisecond},
		{PartitionFor: -time.Second},
		{Drop: math.NaN()},
		{Reset: math.NaN()},
		{Cut: math.NaN()},
		{Delay: math.NaN()},
		{Partition: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad[%d] %+v validated", i, p)
		}
	}
}

// TestDrawsDeterministic: identical (seed, op, attempt) triples yield
// identical draws; changing any coordinate changes them.
func TestDrawsDeterministic(t *testing.T) {
	a := drawsFor(42, "POST /api/sessions/import", 3)
	b := drawsFor(42, "POST /api/sessions/import", 3)
	if a != b {
		t.Fatalf("same triple, different draws: %+v vs %+v", a, b)
	}
	if drawsFor(43, "POST /api/sessions/import", 3) == a {
		t.Fatal("seed change did not move draws")
	}
	if drawsFor(42, "GET /api/sessions/import", 3) == a {
		t.Fatal("op change did not move draws")
	}
	if drawsFor(42, "POST /api/sessions/import", 4) == a {
		t.Fatal("attempt change did not move draws")
	}
}

// TestCRNMonotone is the common-random-number property: a decision that
// triggers at intensity i triggers at every j ≥ i, so fault burdens are
// monotone in intensity draw-by-draw, not just in expectation.
func TestCRNMonotone(t *testing.T) {
	prof := DefaultProfile()
	intensities := []float64{0, 0.25, 0.5, 1, 2}
	for attempt := uint64(0); attempt < 2000; attempt++ {
		d := drawsFor(7, "POST /api/sessions/s000001/pause", attempt)
		prev := verdict{}
		for k, in := range intensities {
			v := decide(prof.Scale(in), d)
			if k > 0 {
				if prev.drop && !v.drop || prev.reset && !v.reset ||
					prev.cut && !v.cut || prev.partitionOnset && !v.partitionOnset {
					t.Fatalf("attempt %d: fault at intensity %g vanished at %g",
						attempt, intensities[k-1], in)
				}
			}
			prev = v
		}
		if z := decide(prof.Scale(0), d); z.drop || z.reset || z.cut || z.partitionOnset || z.delay != 0 {
			t.Fatalf("attempt %d: intensity 0 injected %+v", attempt, z)
		}
	}
}

// TestDecideRates sanity-checks the empirical trigger rates against the
// profile within loose tolerance — mis-scaled draws would blow this.
func TestDecideRates(t *testing.T) {
	prof := Profile{Drop: 0.3, Reset: 0.2, Cut: 0.1, Delay: 0.5, DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond}
	const n = 20000
	var drops, resets, cuts, delays int
	for i := uint64(0); i < n; i++ {
		v := decide(prof, drawsFor(99, "rates", i))
		if v.drop {
			drops++
		}
		if v.reset {
			resets++
		}
		if v.cut {
			cuts++
		}
		if v.delay > 0 {
			delays++
		}
	}
	check := func(name string, got int, want float64) {
		rate := float64(got) / n
		if rate < want-0.02 || rate > want+0.02 {
			t.Errorf("%s rate %.3f, want %.2f ± 0.02", name, rate, want)
		}
	}
	check("drop", drops, prof.Drop)
	check("reset", resets, prof.Reset)
	check("cut", cuts, prof.Cut)
	check("delay", delays, prof.Delay)
}

// TestTransportPassthrough: intensity 0 must be a perfect no-op wrapper.
func TestTransportPassthrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello")
	}))
	defer srv.Close()
	tr, err := NewTransport(nil, DefaultProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetIntensity(0)
	client := &http.Client{Transport: tr}
	for i := 0; i < 50; i++ {
		resp, err := client.Get(srv.URL + "/x")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "hello" {
			t.Fatalf("request %d: body %q err %v", i, body, err)
		}
	}
	if s := tr.Stats(); s.Requests != 50 || s.Drops+s.Resets+s.Cuts+s.Partitioned != 0 {
		t.Fatalf("intensity 0 injected faults: %+v", s)
	}
}

// TestTransportDropNeverReachesPeer: a dropped request must not hit the
// handler; a reset request must.
func TestTransportDropNeverReachesPeer(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	tr, err := NewTransport(nil, Profile{Drop: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: tr}
	if _, err := client.Get(srv.URL + "/drop"); err == nil || !errors.Is(errUnwrap(err), ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
	if served != 0 {
		t.Fatalf("dropped request reached the peer %d times", served)
	}

	tr2, err := NewTransport(nil, Profile{Reset: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	client2 := &http.Client{Transport: tr2}
	if _, err := client2.Get(srv.URL + "/reset"); err == nil || !errors.Is(errUnwrap(err), ErrReset) {
		t.Fatalf("want ErrReset, got %v", err)
	}
	if served != 1 {
		t.Fatalf("reset request should reach the peer exactly once, served %d", served)
	}
}

// errUnwrap digs the injected sentinel out of http.Client's *url.Error.
func errUnwrap(err error) error {
	for {
		u := errors.Unwrap(err)
		if u == nil {
			return err
		}
		err = u
	}
}

// TestTransportCutTruncatesBody: the response arrives but the body read
// fails partway with ErrCut.
func TestTransportCutTruncatesBody(t *testing.T) {
	payload := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		io.WriteString(w, payload)
	}))
	defer srv.Close()
	tr, err := NewTransport(nil, Profile{Cut: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: tr}
	resp, err := client.Get(srv.URL + "/cut")
	if err != nil {
		t.Fatalf("cut must not fail the round trip itself: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, ErrCut) {
		t.Fatalf("want ErrCut from body read, got err=%v body=%d bytes", err, len(body))
	}
	if len(body) >= len(payload) {
		t.Fatalf("cut delivered the whole body (%d bytes)", len(body))
	}
}

// TestTransportPartitionWindow: an onset fails subsequent requests
// until the window expires.
func TestTransportPartitionWindow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	tr, err := NewTransport(nil, Profile{Partition: 1, PartitionFor: 60 * time.Millisecond}, 2)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: tr}
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("partition onset should fail the request")
	}
	// Inside the window every request fails regardless of draws.
	tr.SetIntensity(0)
	if _, err := client.Get(srv.URL); err == nil || !errors.Is(errUnwrap(err), ErrPartitioned) {
		t.Fatalf("inside window want ErrPartitioned, got %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	if resp, err := client.Get(srv.URL); err != nil {
		t.Fatalf("after window: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestTransportDeterministicSequence: two transports with the same
// seed serve the same request sequence with identical fault outcomes.
func TestTransportDeterministicSequence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	prof := Profile{Drop: 0.3, Reset: 0.2}
	run := func() []bool {
		tr, err := NewTransport(nil, prof, 77)
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: tr}
		var fates []bool
		paths := []string{"/a", "/b", "/a", "/c", "/a", "/b"}
		for i := 0; i < 40; i++ {
			resp, err := client.Get(srv.URL + paths[i%len(paths)])
			if err == nil {
				resp.Body.Close()
			}
			fates = append(fates, err == nil)
		}
		return fates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: fates diverge (%v vs %v)", i, a[i], b[i])
		}
	}
}

// TestTransportOpIsolation: interleaving unrelated traffic must not
// shift the draw stream of a different operation.
func TestTransportOpIsolation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	prof := Profile{Drop: 0.4}
	fates := func(noise int) []bool {
		tr, err := NewTransport(nil, prof, 31)
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: tr}
		var out []bool
		for i := 0; i < 20; i++ {
			for j := 0; j < noise; j++ {
				if resp, err := client.Get(srv.URL + "/noise"); err == nil {
					resp.Body.Close()
				}
			}
			resp, err := client.Get(srv.URL + "/op")
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	quiet, noisy := fates(0), fates(3)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("op fate %d shifted under noise (%v vs %v)", i, quiet[i], noisy[i])
		}
	}
}
