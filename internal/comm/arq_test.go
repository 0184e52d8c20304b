package comm

import (
	"math/rand"
	"testing"
	"time"

	"mindful/internal/units"
)

// TestARQRecoversUnderBudget is the satellite property test: for any loss
// pattern whose consecutive-failure runs stay within the retry budget,
// ARQ delivers 100% of frames.
func TestARQRecoversUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		budget := 1 + rng.Intn(4)
		a, err := NewARQ(ARQConfig{MaxRetries: budget})
		if err != nil {
			t.Fatal(err)
		}
		frames := 1 + rng.Intn(50)
		var delivered int
		for fr := 0; fr < frames; fr++ {
			// A failure run strictly shorter than attempts available.
			failures := rng.Intn(budget + 1)
			seen := 0
			attempts, ok := a.Send([]byte{byte(fr)}, 8, func([]byte) bool {
				seen++
				return seen > failures
			})
			if !ok {
				t.Fatalf("trial %d: frame %d lost with %d failures under budget %d", trial, fr, failures, budget)
			}
			if attempts != failures+1 {
				t.Fatalf("trial %d: %d attempts for %d failures", trial, attempts, failures)
			}
			delivered++
		}
		st := a.Stats()
		if st.Delivered != int64(delivered) || st.Failed != 0 || st.Sent != int64(frames) {
			t.Fatalf("trial %d: stats %+v for %d/%d delivered", trial, st, delivered, frames)
		}
		if st.RecoveryRate() != 1 {
			t.Fatalf("trial %d: recovery rate %g under budgeted loss", trial, st.RecoveryRate())
		}
	}
}

// TestARQBudgetExhaustion: a frame failing beyond the budget is abandoned
// after exactly MaxRetries+1 attempts and accounted as failed.
func TestARQBudgetExhaustion(t *testing.T) {
	a, err := NewARQ(ARQConfig{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	attempts, ok := a.Send([]byte{1, 2}, 16, func([]byte) bool { return false })
	if ok {
		t.Fatal("undeliverable frame reported delivered")
	}
	if attempts != 4 {
		t.Fatalf("%d attempts, want 4 (1 + 3 retries)", attempts)
	}
	st := a.Stats()
	if st.Failed != 1 || st.Retransmits != 3 || st.RetransmitBits != 48 || st.NACKs != 3 {
		t.Fatalf("stats %+v", st)
	}
	if e := st.EnergyOverhead(units.PicojoulesPerBit(50)); e.Joules() != 48*50e-12 {
		t.Errorf("energy overhead %v", e)
	}
}

// TestARQLatencyBudget: the latency cap shrinks the effective retry
// budget so per-frame recovery latency stays inside the envelope.
func TestARQLatencyBudget(t *testing.T) {
	cfg := ARQConfig{
		MaxRetries:    10,
		SlotTime:      time.Millisecond,
		LatencyBudget: 4 * time.Millisecond, // 4 attempts fit: 3 retries
	}
	if got := cfg.EffectiveRetries(); got != 3 {
		t.Fatalf("effective retries %d, want 3", got)
	}
	a, err := NewARQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attempts, ok := a.Send(nil, 8, func([]byte) bool { return false })
	if ok || attempts != 4 {
		t.Fatalf("attempts %d under 4ms budget, want 4", attempts)
	}
	if l := a.Latency(attempts); l != 4*time.Millisecond {
		t.Errorf("latency %v, want 4ms", l)
	}
	// Without timing, MaxRetries rules.
	if got := (ARQConfig{MaxRetries: 2}).EffectiveRetries(); got != 2 {
		t.Errorf("untimed effective retries %d, want 2", got)
	}
	// A budget shorter than one slot still permits the first attempt.
	tight := ARQConfig{MaxRetries: 5, SlotTime: time.Millisecond, LatencyBudget: time.Millisecond}
	if got := tight.EffectiveRetries(); got != 0 {
		t.Errorf("one-slot budget effective retries %d, want 0", got)
	}
}

func TestARQDisabled(t *testing.T) {
	a, err := NewARQ(ARQConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().Enabled() {
		t.Fatal("zero config reports enabled")
	}
	attempts, ok := a.Send(nil, 8, func([]byte) bool { return false })
	if ok || attempts != 1 {
		t.Fatalf("disabled ARQ made %d attempts", attempts)
	}
}

func TestARQValidate(t *testing.T) {
	if _, err := NewARQ(ARQConfig{MaxRetries: -1}); err == nil {
		t.Error("negative retries accepted")
	}
	if _, err := NewARQ(ARQConfig{SlotTime: -time.Second}); err == nil {
		t.Error("negative slot time accepted")
	}
}

// TestARQEndToEnd drives the recovery loop through the real frame path: a
// lossy transport that corrupts whole attempts, with the receiver side
// validating CRC — the integration the fleet pipeline uses.
func TestARQEndToEnd(t *testing.T) {
	p, err := NewPacketizer(10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewARQ(ARQConfig{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var accepted int
	for i := 0; i < 100; i++ {
		frame, err := p.Encode([]uint16{uint16(i), 42, 7})
		if err != nil {
			t.Fatal(err)
		}
		_, ok := a.Send(frame, len(frame)*8, func(buf []byte) bool {
			if rng.Float64() < 0.4 { // corrupt this attempt
				bad := append([]byte(nil), buf...)
				bad[rng.Intn(len(bad))] ^= 0xFF
				_, err := Decode(bad)
				return err == nil
			}
			_, err := Decode(buf)
			return err == nil
		})
		if ok {
			accepted++
		}
	}
	st := a.Stats()
	if st.Delivered != int64(accepted) || st.Delivered+st.Failed != 100 {
		t.Fatalf("stats %+v vs %d accepted", st, accepted)
	}
	// 40% per-attempt loss with 2 retries → ~94% delivery expected.
	if accepted < 80 {
		t.Errorf("only %d/100 frames delivered through ARQ", accepted)
	}
	if st.Recovered == 0 {
		t.Error("no frames recovered by retransmission at 40% loss")
	}
}
