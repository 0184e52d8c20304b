package accel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mindful/internal/detrand"
	"mindful/internal/dnnmodel"
	"mindful/internal/mac"
	"mindful/internal/nn"
	"mindful/internal/sched"
	"mindful/internal/units"
)

// smallMLP builds a runnable model + its structural spec at a reduced
// channel count so fixed-point inference stays fast.
func smallMLP(t *testing.T, channels int) (*nn.Network, dnnmodel.Model) {
	t.Helper()
	m, err := dnnmodel.MLP().Scale(channels)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.BuildFromSpec(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	return net, m
}

func TestPipelineMatchesScheduleTiming(t *testing.T) {
	net, m := smallMLP(t, 128)
	deadline := sched.DeadlineFor(units.Kilohertz(2))
	res, err := sched.Pipelined(m, deadline, mac.NanGate45)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("128-channel MLP must schedule")
	}
	p, err := BuildPipeline(net, res.PerLayer, mac.NanGate45, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The executable pipeline meets the very deadline the solver promised.
	if !p.MeetsDeadline(deadline) {
		t.Errorf("pipeline misses the deadline: II = %v > %v", p.InitiationInterval(), deadline)
	}
	// Every stage individually fits (Eq. 14 per-layer constraint).
	for i, st := range p.StageTimes() {
		if st > deadline {
			t.Errorf("stage %d time %v exceeds deadline", i, st)
		}
	}
	// Physical MAC count equals the schedule's allocation.
	if p.TotalMACs() != res.MACHW {
		t.Errorf("pipeline MACs %d != schedule %d", p.TotalMACs(), res.MACHW)
	}
	// The PE floor equals the Eq. 13 power the framework prices, and the
	// full accelerator costs strictly more (overheads).
	if math.Abs(p.PELowerBoundPower().Watts()-res.Power.Watts()) > 1e-15 {
		t.Errorf("PE floor %v != schedule power %v", p.PELowerBoundPower(), res.Power)
	}
	if p.TotalPower().Watts() <= res.Power.Watts() {
		t.Errorf("full pipeline power should exceed the MAC-only lower bound")
	}
	// Latency ≥ initiation interval; both positive.
	if p.Latency() < p.InitiationInterval() || p.InitiationInterval() <= 0 {
		t.Errorf("latency %v / II %v inconsistent", p.Latency(), p.InitiationInterval())
	}
}

func TestPipelineInferenceTracksFloat(t *testing.T) {
	net, m := smallMLP(t, 128)
	res, err := sched.Pipelined(m, sched.DeadlineFor(units.Kilohertz(2)), mac.NanGate45)
	if err != nil || !res.Feasible {
		t.Fatalf("schedule failed: %v", err)
	}
	p, err := BuildPipeline(net, res.PerLayer, mac.NanGate45, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	agree := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		in := make([]float64, 128)
		for i := range in {
			in[i] = rng.NormFloat64() * 0.1
		}
		want, err := net.Forward(nn.FromVector(in))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want.Size() {
			t.Fatalf("output size %d != %d", len(got), want.Size())
		}
		if nn.Argmax(got) == nn.Argmax(want.Data) {
			agree++
		}
	}
	// 8-bit end-to-end inference through five layers is lossy, but the
	// decision must usually agree with float.
	if agree < trials*6/10 {
		t.Errorf("argmax agreement %d/%d, want ≥ 60%%", agree, trials)
	}
}

func TestPipelineValidation(t *testing.T) {
	net, _ := smallMLP(t, 128)
	if _, err := BuildPipeline(nil, nil, mac.NanGate45, 8); err == nil {
		t.Errorf("nil network should fail")
	}
	if _, err := BuildPipeline(net, []int{1}, mac.NanGate45, 8); err == nil {
		t.Errorf("allocation length mismatch should fail")
	}
	alloc := make([]int, len(net.Layers))
	if _, err := BuildPipeline(net, alloc, mac.NanGate45, 8); err == nil {
		t.Errorf("zero allocation should fail validation")
	}
	// Conv layers are rejected.
	rng := detrand.New(2)
	convNet, err := nn.NewNetwork(4, 16, nn.RandConv1D(rng, 4, 2, 3, 1, nn.ReLU))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPipeline(convNet, []int{1}, mac.NanGate45, 8); err == nil {
		t.Errorf("conv network should be rejected")
	}
	// Wrong input length at inference time.
	m, _ := dnnmodel.MLP().Scale(128)
	res, err := sched.Pipelined(m, sched.DeadlineFor(units.Kilohertz(2)), mac.NanGate45)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPipeline(net, res.PerLayer, mac.NanGate45, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Infer(make([]float64, 3)); err == nil {
		t.Errorf("wrong input length should fail")
	}
}

func TestPipelineMoreMACsFasterStage(t *testing.T) {
	net, m := smallMLP(t, 128)
	res, err := sched.Pipelined(m, sched.DeadlineFor(units.Kilohertz(2)), mac.NanGate45)
	if err != nil || !res.Feasible {
		t.Fatal("schedule failed")
	}
	base, err := BuildPipeline(net, res.PerLayer, mac.NanGate45, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Maximal parallelism: ops-many units per layer.
	maxAlloc := make([]int, len(net.Layers))
	for i, l := range net.Layers {
		d := l.(*nn.Dense)
		maxAlloc[i] = len(d.W)
	}
	fast, err := BuildPipeline(net, maxAlloc, mac.NanGate45, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fast.InitiationInterval() > base.InitiationInterval() {
		t.Errorf("more MACs should not slow the pipeline")
	}
	if fast.TotalPower().Watts() <= base.TotalPower().Watts() {
		t.Errorf("more MACs must cost more power")
	}
	var zero time.Duration
	if fast.InitiationInterval() == zero {
		t.Errorf("degenerate interval")
	}
}
