package implant

import (
	"math"
	"testing"

	"mindful/internal/comm"
	"mindful/internal/detrand"
	"mindful/internal/nn"
	"mindful/internal/units"
)

func TestCommCentricEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 64
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wearable side: decode every frame and count samples.
	var decoded int
	var lastSeq uint32
	im.OnFrame(func(buf []byte) {
		f, err := comm.Decode(buf)
		if err != nil {
			t.Fatalf("wearable decode failed: %v", err)
		}
		if len(f.Samples) != 64 {
			t.Fatalf("frame carries %d samples", len(f.Samples))
		}
		if decoded > 0 && f.Seq != lastSeq+1 {
			t.Fatalf("sequence gap: %d after %d", f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		decoded++
	})
	const ticks = 500
	if err := im.Run(ticks); err != nil {
		t.Fatal(err)
	}
	if decoded != ticks {
		t.Errorf("decoded %d frames, want %d", decoded, ticks)
	}
	st := im.Stats()
	if st.Frames != ticks || st.Ticks != ticks || st.Inferences != 0 {
		t.Errorf("stats wrong: %+v", st)
	}
	// Tx rate ≈ sensing rate + framing overhead (within 2%).
	if st.TxRate.BPS() < st.SensingRate.BPS() {
		t.Errorf("comm-centric tx rate below raw rate")
	}
	// Per-sample framing of 64 channels adds the 14-byte header+CRC to an
	// 80-byte payload: ≈17.5% overhead.
	if st.TxRate.BPS() > 1.2*st.SensingRate.BPS() {
		t.Errorf("framing overhead too large: %v vs %v", st.TxRate, st.SensingRate)
	}
	// Compression ratio below 1 (overhead), but not by much.
	if cr := st.CompressionRatio(); cr <= 0.8 || cr >= 1.0 {
		t.Errorf("comm-centric compression = %v, want just under 1", cr)
	}
	if st.ComputePower != 0 {
		t.Errorf("comm-centric compute power should be 0")
	}
}

func smallNetwork(t *testing.T, channels, labels int) *nn.Network {
	t.Helper()
	rng := detrand.New(9)
	net, err := nn.NewNetwork(1, channels,
		nn.RandDense(rng, channels, 32, nn.ReLU),
		nn.RandDense(rng, 32, labels, nn.Identity),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestComputeCentricReducesData(t *testing.T) {
	// The paper's central computation-centric claim: on-implant DNN
	// output is far smaller than raw data.
	cfg := DefaultConfig()
	cfg.Neural.Channels = 64
	cfg.Flow = ComputeCentric
	cfg.Network = smallNetwork(t, 64, 4)
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Run(200); err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	if st.Inferences != 200 {
		t.Errorf("inferences = %d", st.Inferences)
	}
	if len(im.LastOutput()) != 4 {
		t.Errorf("last output size = %d", len(im.LastOutput()))
	}
	if cr := st.CompressionRatio(); cr < 4 {
		t.Errorf("compression ratio = %v, want ≫ 1", cr)
	}
	if st.ComputePower <= 0 {
		t.Errorf("compute power should be positive")
	}
	// Against the comm-centric twin: far lower radio power, some compute.
	ccCfg := DefaultConfig()
	ccCfg.Neural.Channels = 64
	cc, err := New(ccCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Run(200); err != nil {
		t.Fatal(err)
	}
	if st.RadioPower.Watts() >= cc.Stats().RadioPower.Watts()/4 {
		t.Errorf("computation-centric radio power %v not well below comm-centric %v",
			st.RadioPower, cc.Stats().RadioPower)
	}
}

func TestSafetyAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 32
	cfg.Area = units.SquareMillimetres(100)
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Run(100); err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	if !st.Safety.Safe() {
		t.Errorf("large-area implant should be safe: %v", st.Safety)
	}
	// Shrinking the area below the required budget must flip the check.
	cfg.Area = units.SquareMillimetres(0.1)
	im2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := im2.Run(100); err != nil {
		t.Fatal(err)
	}
	if im2.Stats().Safety.Safe() {
		t.Errorf("tiny implant should violate the budget")
	}
	if got := st.Total().Watts(); math.Abs(got-(st.RadioPower+st.ComputePower+st.SensingPower).Watts()) > 1e-15 {
		t.Errorf("total power does not decompose")
	}
}

func TestIntentReachesSubstrate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neural.Channels = 16
	im, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im.SetIntent(0.5, -0.5)
	if x, y := im.gen.Intent(); x != 0.5 || y != -0.5 {
		t.Errorf("intent not forwarded: %v, %v", x, y)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flow = ComputeCentric
	if _, err := New(cfg); err == nil {
		t.Errorf("compute-centric without network should fail")
	}
	cfg.Network = smallNetwork(t, 32, 4) // mismatched channel count
	if _, err := New(cfg); err == nil {
		t.Errorf("network/channel mismatch should fail")
	}
	bad := DefaultConfig()
	bad.Neural.Channels = 0
	if _, err := New(bad); err == nil {
		t.Errorf("invalid neural config should fail")
	}
	badADC := DefaultConfig()
	badADC.ADC.Bits = 0
	if _, err := New(badADC); err == nil {
		t.Errorf("invalid ADC should fail")
	}
	noNode := DefaultConfig()
	noNode.ComputeNode.TMAC = 0
	if _, err := New(noNode); err == nil {
		t.Errorf("node without timing should fail")
	}
}

func TestDataflowString(t *testing.T) {
	if CommCentric.String() != "communication-centric" {
		t.Errorf("CommCentric string")
	}
	if ComputeCentric.String() != "computation-centric" {
		t.Errorf("ComputeCentric string")
	}
}

func TestStatsBeforeRun(t *testing.T) {
	im, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	if st.Ticks != 0 || st.TxRate != 0 || st.RadioPower != 0 {
		t.Errorf("fresh implant stats not zero: %+v", st)
	}
	if st.CompressionRatio() != 0 {
		t.Errorf("fresh compression ratio should be 0")
	}
}
