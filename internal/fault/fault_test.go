package fault

import (
	"bytes"
	"math"
	"testing"
)

func TestProfileScale(t *testing.T) {
	p := DefaultProfile()
	zero := p.Scale(0)
	if zero.Enabled() {
		t.Fatalf("Scale(0) still enabled: %+v", zero)
	}
	one := p.Scale(1)
	if one != p {
		t.Fatalf("Scale(1) changed the profile:\n got %+v\nwant %+v", one, p)
	}
	big := p.Scale(1e6)
	if err := big.Validate(); err != nil {
		t.Fatalf("scaled profile invalid: %v", err)
	}
	if big.FrameLoss != 1 {
		t.Errorf("FrameLoss not clamped: %g", big.FrameLoss)
	}
}

func TestProfileValidate(t *testing.T) {
	p := DefaultProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
	p.FrameLoss = 1.5
	if err := p.Validate(); err == nil {
		t.Error("out-of-range FrameLoss passed validation")
	}
	p = DefaultProfile()
	p.DeadFrac, p.StuckFrac, p.DriftFrac = 0.5, 0.4, 0.3
	if err := p.Validate(); err == nil {
		t.Error("fraction sum > 1 passed validation")
	}
	// NaN fails both bounds comparisons, so it needs its own check; a
	// profile can arrive from outside inside a checkpoint blob.
	nan := math.NaN()
	for name, set := range map[string]func(*Profile){
		"BurstPGB":     func(p *Profile) { p.BurstPGB = nan },
		"BurstPBG":     func(p *Profile) { p.BurstPBG = nan },
		"BERGood":      func(p *Profile) { p.BERGood = nan },
		"BERBad":       func(p *Profile) { p.BERBad = nan },
		"FrameLoss":    func(p *Profile) { p.FrameLoss = nan },
		"DeadFrac":     func(p *Profile) { p.DeadFrac = nan },
		"StuckFrac":    func(p *Profile) { p.StuckFrac = nan },
		"DriftFrac":    func(p *Profile) { p.DriftFrac = nan },
		"DriftRate":    func(p *Profile) { p.DriftRate = nan },
		"BrownoutProb": func(p *Profile) { p.BrownoutProb = nan },
	} {
		p := DefaultProfile()
		set(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("NaN %s passed validation", name)
		}
	}
}

// TestBurstLinkDeterminism: the same seed must replay the exact same
// corruption history, and the input buffer must never be modified.
func TestBurstLinkDeterminism(t *testing.T) {
	p := DefaultProfile()
	frame := bytes.Repeat([]byte{0xA5, 0x3C}, 32)
	orig := append([]byte(nil), frame...)

	run := func(seed int64) [][]byte {
		l, err := NewBurstLink(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for i := 0; i < 64; i++ {
			out = append(out, l.Transport(frame))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d diverged across replays", i)
		}
	}
	if !bytes.Equal(frame, orig) {
		t.Fatal("Transport mutated the caller's buffer")
	}
	c := run(8)
	same := true
	for i := range a {
		if !bytes.Equal(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical corruption")
	}
}

// TestBurstLinkBurstiness: in a two-state channel with a harsh bad state,
// bit errors must clump — the conditional error rate after an error far
// exceeds the marginal rate.
func TestBurstLinkBurstiness(t *testing.T) {
	p := Profile{BurstPGB: 0.01, BurstPBG: 0.1, BERGood: 0.0005, BERBad: 0.3}
	l, err := NewBurstLink(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := make([]byte, 256)
	var errBits, total, pairs, afterErr int64
	prevErr := false
	for f := 0; f < 200; f++ {
		got := l.Transport(clean)
		for i := range got {
			for b := 7; b >= 0; b-- {
				e := got[i]>>b&1 != 0
				total++
				if e {
					errBits++
				}
				if prevErr {
					pairs++
					if e {
						afterErr++
					}
				}
				prevErr = e
			}
		}
	}
	marginal := float64(errBits) / float64(total)
	conditional := float64(afterErr) / float64(pairs)
	if marginal <= 0 {
		t.Fatal("no errors injected")
	}
	if conditional < 3*marginal {
		t.Errorf("errors not bursty: P(err|err) = %.4f vs marginal %.4f", conditional, marginal)
	}
}

func TestBurstLinkFrameLoss(t *testing.T) {
	p := Profile{FrameLoss: 0.5}
	l, err := NewBurstLink(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	var dropped int
	for i := 0; i < 400; i++ {
		if l.Transport([]byte{1, 2, 3}) == nil {
			dropped++
		}
	}
	if dropped < 150 || dropped > 250 {
		t.Errorf("dropped %d/400 frames at 50%% loss", dropped)
	}
	st := l.Stats()
	if st.Frames != 400 || st.DroppedFrames != int64(dropped) {
		t.Errorf("stats %+v disagree with observed %d/400", st, dropped)
	}
}

func TestElectrodeBank(t *testing.T) {
	p := Profile{DeadFrac: 0.25, StuckFrac: 0.25, DriftFrac: 0.25, DriftRate: 0.1}
	b, err := NewElectrodeBank(64, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.FaultyChannels() == 0 || b.FaultyChannels() == 64 {
		t.Fatalf("implausible faulty count %d/64", b.FaultyChannels())
	}
	samples := make([]float64, 64)
	for i := range samples {
		samples[i] = 1
	}
	b.Apply(samples)
	for c, v := range samples {
		switch b.State(c) {
		case ChannelDead:
			if v != 0 {
				t.Errorf("dead channel %d reads %g", c, v)
			}
		case ChannelStuck:
			if v < -1 || v > 1 {
				t.Errorf("stuck channel %d outside [-1,1]: %g", c, v)
			}
		case ChannelDrift:
			if math.Abs(v-0.9) > 1e-12 {
				t.Errorf("drift channel %d = %g after one tick, want 0.9", c, v)
			}
		case ChannelOK:
			if v != 1 {
				t.Errorf("healthy channel %d modified: %g", c, v)
			}
		}
	}
	// Drift compounds.
	for i := range samples {
		samples[i] = 1
	}
	b.Apply(samples)
	for c, v := range samples {
		if b.State(c) == ChannelDrift && math.Abs(v-0.81) > 1e-12 {
			t.Errorf("drift channel %d = %g after two ticks, want 0.81", c, v)
		}
	}
	// Determinism: same seed, same assignment.
	b2, err := NewElectrodeBank(64, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 64; c++ {
		if b.State(c) != b2.State(c) {
			t.Fatalf("channel %d state diverged across same-seed banks", c)
		}
	}
	var nilBank *ElectrodeBank
	nilBank.Apply(samples) // nil bank is a no-op
	if nilBank.FaultyChannels() != 0 {
		t.Error("nil bank reports faulty channels")
	}
}

func TestBrownout(t *testing.T) {
	p := Profile{BrownoutProb: 0.2, BrownoutTicks: 3}
	b, err := NewBrownout(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	blanked := 0
	for i := 0; i < 1000; i++ {
		if b.Tick() {
			blanked++
		}
	}
	if int64(blanked) != b.BlankedTicks() {
		t.Errorf("observed %d blanked ticks, stats say %d", blanked, b.BlankedTicks())
	}
	if b.Events() == 0 {
		t.Fatal("no brownout events in 1000 ticks at 20% onset")
	}
	if avg := float64(b.BlankedTicks()) / float64(b.Events()); avg < 2.5 {
		t.Errorf("average blanking %g ticks, want ≈3 (window)", avg)
	}
	var nilB *Brownout
	if nilB.Tick() || nilB.Events() != 0 || nilB.BlankedTicks() != 0 {
		t.Error("nil brownout not a powered no-op")
	}
}

func TestNewInjector(t *testing.T) {
	inj, err := NewInjector(DefaultProfile(), 32, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil || inj.Link == nil || inj.Electrodes == nil || inj.Brownout == nil {
		t.Fatal("enabled profile produced incomplete injector")
	}
	none, err := NewInjector(Profile{}, 32, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Fatal("disabled profile produced an injector")
	}
}
