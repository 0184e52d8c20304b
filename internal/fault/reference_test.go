package fault

import (
	"bytes"
	"math/rand"
	"testing"

	"mindful/internal/detrand"
	"mindful/internal/obs"
)

// This file holds the per-bit Gilbert–Elliott walk BurstLink ran before
// its uniforms were drawn in bulk, as the test oracle the production
// AppendTransport is pinned against: identical bytes, RNG position,
// channel state, accounting and observer counters after every frame.

// refAppendTransport is the per-bit walk: one Float64 call for each
// state transition and one for each error draw, straight from the
// link's generator.
func refAppendTransport(l *BurstLink, dst, buf []byte) []byte {
	l.stats.Frames++
	l.frames.Inc()
	if l.p.FrameLoss > 0 && l.rng.Float64() < l.p.FrameLoss {
		l.stats.DroppedFrames++
		l.drops.Inc()
		return nil
	}
	base := len(dst)
	dst = append(dst, buf...)
	if l.p.BurstPGB == 0 && l.p.BERGood == 0 && !l.bad {
		return dst
	}
	for i := 0; i < len(buf)*8; i++ {
		// State transition first, then the error draw.
		if l.bad {
			if l.rng.Float64() < l.p.BurstPBG {
				l.bad = false
			}
		} else if l.rng.Float64() < l.p.BurstPGB {
			l.bad = true
		}
		ber := l.p.BERGood
		if l.bad {
			ber = l.p.BERBad
			l.stats.BadBits++
		}
		if ber > 0 && l.rng.Float64() < ber {
			dst[base+i/8] ^= 1 << (7 - i%8)
			l.stats.BitFlips++
			l.flips.Inc()
		}
	}
	return dst
}

// linkTwin is a production link and its oracle twin, each with its own
// observer, built from the same profile and state.
type linkTwin struct {
	got, ref       *BurstLink
	gotObs, refObs *obs.Observer
}

func newLinkTwin(t testing.TB, p Profile, st BurstLinkState) *linkTwin {
	t.Helper()
	got, err := RestoreBurstLink(p, st)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RestoreBurstLink(p, st)
	if err != nil {
		t.Fatal(err)
	}
	tw := &linkTwin{got: got, ref: ref, gotObs: obs.New(), refObs: obs.New()}
	got.SetObserver(tw.gotObs)
	ref.SetObserver(tw.refObs)
	return tw
}

// step transports one frame through both links and fails on the first
// difference in output, snapshot or observer counters.
func (tw *linkTwin) step(t testing.TB, frame []byte) {
	t.Helper()
	orig := append([]byte(nil), frame...)
	prefix := []byte{0xEE}
	want := refAppendTransport(tw.ref, append([]byte(nil), prefix...), frame)
	got := tw.got.AppendTransport(append([]byte(nil), prefix...), frame)
	if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%+v: %d-byte frame transported to\n %x\noracle\n %x", tw.got.p, len(frame), got, want)
	}
	if !bytes.Equal(frame, orig) {
		t.Fatal("AppendTransport modified its input")
	}
	if g, w := tw.got.Snapshot(), tw.ref.Snapshot(); g != w {
		t.Fatalf("%+v: snapshot %+v, oracle %+v", tw.got.p, g, w)
	}
	for _, name := range []string{"fault_link_frames_total", "fault_link_frames_dropped_total", "fault_link_bit_flips_total"} {
		if g, w := tw.gotObs.Metrics.Counter(name).Value(), tw.refObs.Metrics.Counter(name).Value(); g != w {
			t.Fatalf("%+v: %s = %d, oracle %d", tw.got.p, name, g, w)
		}
	}
}

// TestBurstLinkMatchesOracle runs twin links over random frames — from
// empty to several uniform-buffer refills long — across every draw
// shape: the default profile, both BERs positive (two draws per bit),
// only BERGood positive (one or two by state), transitions only, a link
// restored into the bad state with no way into it (PGB = 0), and frame
// loss at 0 and 1.
func TestBurstLinkMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	profiles := []struct {
		name string
		p    Profile
		bad  bool
	}{
		{"default", DefaultProfile(), false},
		{"both BERs", Profile{BurstPGB: 0.01, BurstPBG: 0.1, BERGood: 0.001, BERBad: 0.3}, false},
		{"BERGood only", Profile{BurstPGB: 0.02, BurstPBG: 0.05, BERGood: 0.05}, false},
		{"transitions only", Profile{BurstPGB: 0.05, BurstPBG: 0.2}, false},
		{"restored bad, PGB 0", Profile{BurstPBG: 0.01, BERBad: 0.2}, true},
		{"restored bad, both BERs", Profile{BurstPBG: 0.3, BERGood: 0.5, BERBad: 0.5}, true},
		{"frame loss 1", Profile{BurstPGB: 0.1, BurstPBG: 0.1, BERBad: 0.5, FrameLoss: 1}, false},
		{"frame loss, half-flip", Profile{BurstPGB: 0.5, BurstPBG: 0.5, BERGood: 0.5, BERBad: 0.5, FrameLoss: 0.3}, false},
		{"clean", Profile{}, false},
	}
	for _, pc := range profiles {
		for seed := int64(0); seed < 4; seed++ {
			tw := newLinkTwin(t, pc.p, BurstLinkState{RNG: detrand.State{Seed: seed}, Bad: pc.bad})
			for f := 0; f < 60; f++ {
				frame := make([]byte, rng.Intn(300))
				rng.Read(frame)
				tw.step(t, frame)
			}
		}
	}
	// Random profiles over the same shapes.
	pick := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 0.05
		}
		return rng.Float64()
	}
	for iter := 0; iter < 200; iter++ {
		p := Profile{BurstPGB: pick(), BurstPBG: pick(), BERGood: pick(), BERBad: pick()}
		if rng.Intn(4) == 0 {
			p.FrameLoss = float64(rng.Intn(2))
		}
		tw := newLinkTwin(t, p, BurstLinkState{RNG: detrand.State{Seed: rng.Int63()}, Bad: rng.Intn(2) == 0})
		for f := 0; f < 8; f++ {
			frame := make([]byte, rng.Intn(200))
			rng.Read(frame)
			tw.step(t, frame)
		}
	}
}

// FuzzBurstLink runs the production link and the oracle on fuzzed
// profiles, start states and frames, several frames per input so the
// Gilbert–Elliott state carries across frames.
func FuzzBurstLink(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C, 0x00, 0xFF}, int64(1), uint16(131), uint16(3276), uint16(0), uint16(5243), uint16(0), false)
	f.Add(bytes.Repeat([]byte{0x55}, 300), int64(-7), uint16(0), uint16(655), uint16(0), uint16(13107), uint16(0), true)
	f.Add([]byte{}, int64(0), uint16(65535), uint16(65535), uint16(65535), uint16(65535), uint16(65535), false)
	f.Fuzz(func(t *testing.T, frame []byte, seed int64, pgb, pbg, berGood, berBad, loss uint16, bad bool) {
		prob := func(v uint16) float64 { return float64(v) / 65535 }
		p := Profile{BurstPGB: prob(pgb), BurstPBG: prob(pbg), BERGood: prob(berGood), BERBad: prob(berBad), FrameLoss: prob(loss)}
		tw := newLinkTwin(t, p, BurstLinkState{RNG: detrand.State{Seed: seed}, Bad: bad})
		for i := 0; i < 4; i++ {
			tw.step(t, frame)
		}
	})
}

// TestAppendTransportZeroAlloc pins the steady-state link path at zero
// allocations: the uniform buffer lives on the stack and a recycled dst
// absorbs the frame.
func TestAppendTransportZeroAlloc(t *testing.T) {
	p := Profile{BurstPGB: 0.01, BurstPBG: 0.1, BERGood: 0.001, BERBad: 0.3}
	l, err := NewBurstLink(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	l.SetObserver(obs.New())
	frame := bytes.Repeat([]byte{0xA5}, 600)
	dst := l.AppendTransport(nil, frame)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = l.AppendTransport(dst[:0], frame)
	}); allocs != 0 {
		t.Errorf("AppendTransport: %.1f allocs/op at steady state, want 0", allocs)
	}
}

// BenchmarkAppendTransport transports a 48-byte frame (the fleet's
// 32-channel, 10-bit frame plus header) under the default profile.
func BenchmarkAppendTransport(b *testing.B) {
	l, err := NewBurstLink(DefaultProfile(), 1)
	if err != nil {
		b.Fatal(err)
	}
	frame := bytes.Repeat([]byte{0xA5}, 48)
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AppendTransport(dst[:0], frame) // nil on a dropped frame, so keep dst
	}
}
