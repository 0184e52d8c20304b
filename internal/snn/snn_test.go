package snn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindful/internal/detrand"
	"mindful/internal/mac"
)

func TestLIFValidation(t *testing.T) {
	bad := []LIF{
		{Leak: 0, Threshold: 1},
		{Leak: 1.5, Threshold: 1},
		{Leak: 0.9, Threshold: 0, Reset: 0},
		{Leak: 0.9, Threshold: 1, RefractorySteps: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should fail", i)
		}
	}
	if err := DefaultLIF().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestSingleNeuronIntegratesAndFires(t *testing.T) {
	// One neuron, one synapse of weight 0.4, threshold 1, no leak decay
	// loss (leak 1): fires on the 3rd input spike (0.4+0.4+0.4 ≥ 1... the
	// check happens after accumulation, so 3 spikes → 1.2 ≥ 1).
	l, err := NewLayer([][]float64{{0.4}}, LIF{Leak: 1, Threshold: 1, Reset: 0})
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for step := 0; step < 6; step++ {
		out, ev, err := l.Step([]byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if ev != 1 {
			t.Fatalf("step %d events = %d, want 1", step, ev)
		}
		if out[0] == 1 {
			fired = append(fired, step)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Errorf("fired at %v, want [2 5]", fired)
	}
}

func TestLeakPreventsFiring(t *testing.T) {
	// Strong leak with sub-threshold drive: never fires.
	l, err := NewLayer([][]float64{{0.3}}, LIF{Leak: 0.5, Threshold: 1, Reset: 0})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 100; step++ {
		out, _, err := l.Step([]byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] == 1 {
			t.Fatalf("leaky neuron fired at step %d", step)
		}
	}
}

func TestRefractoryPeriod(t *testing.T) {
	// Huge weight: would fire every step without refractory hold-off.
	l, err := NewLayer([][]float64{{2}}, LIF{Leak: 1, Threshold: 1, Reset: 0, RefractorySteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pattern []byte
	for step := 0; step < 8; step++ {
		out, _, err := l.Step([]byte{1})
		if err != nil {
			t.Fatal(err)
		}
		pattern = append(pattern, out[0])
	}
	// Fire, then 3 silent steps, repeating.
	want := []byte{1, 0, 0, 0, 1, 0, 0, 0}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("pattern = %v, want %v", pattern, want)
		}
	}
}

func TestEventCountingIsEventDriven(t *testing.T) {
	rng := detrand.New(4)
	l := RandLayer(rng, 10, 5, DefaultLIF())
	// No input spikes → zero events.
	_, ev, err := l.Step(make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	if ev != 0 {
		t.Errorf("silent input produced %d events", ev)
	}
	// k active inputs → k × Out events.
	in := make([]byte, 10)
	in[2], in[7] = 1, 1
	_, ev, err = l.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if ev != 2*5 {
		t.Errorf("events = %d, want 10", ev)
	}
}

func TestNetworkPropagationAndAccounting(t *testing.T) {
	rng := detrand.New(5)
	n, err := NewNetwork(
		RandLayer(rng, 16, 8, DefaultLIF()),
		RandLayer(rng, 8, 4, DefaultLIF()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n.In() != 16 || n.Out() != 4 {
		t.Fatalf("dims = %d→%d", n.In(), n.Out())
	}
	if n.Synapses() != 16*8+8*4 {
		t.Errorf("synapses = %d", n.Synapses())
	}
	enc, err := NewPoissonEncoder(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, 16)
	for i := range values {
		values[i] = 0.8
	}
	for step := 0; step < 400; step++ {
		if _, err := n.Step(enc.Encode(values)); err != nil {
			t.Fatal(err)
		}
	}
	if n.Steps() != 400 {
		t.Errorf("steps = %d", n.Steps())
	}
	if n.SynapticEvents() == 0 {
		t.Errorf("no synaptic events despite active input")
	}
	// Activity factor strictly below 1: the event-driven saving.
	if af := n.ActivityFactor(); af <= 0 || af >= 1 {
		t.Errorf("activity factor = %v, want (0, 1)", af)
	}
	rates := n.Rates()
	active := 0
	for _, r := range rates {
		if r > 0 {
			active++
		}
	}
	if active == 0 {
		t.Errorf("no output activity: %v", rates)
	}
	n.Reset()
	if n.Steps() != 0 || n.SynapticEvents() != 0 {
		t.Errorf("Reset did not clear accounting")
	}
}

func TestNetworkDiscriminatesInputPatterns(t *testing.T) {
	// A hand-built two-output network where output 0 listens to the first
	// input group and output 1 to the second: rate decoding must tell the
	// patterns apart.
	w := [][]float64{
		{0.6, 0.6, 0, 0},
		{0, 0, 0.6, 0.6},
	}
	l, err := NewLayer(w, LIF{Leak: 0.9, Threshold: 1, Reset: 0, RefractorySteps: 0})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(l)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewPoissonEncoder(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(values []float64, steps int) []float64 {
		n.Reset()
		for s := 0; s < steps; s++ {
			if _, err := n.Step(enc.Encode(values)); err != nil {
				t.Fatal(err)
			}
		}
		return n.Rates()
	}
	groupA := drive([]float64{1, 1, 0, 0}, 500)
	if groupA[0] <= 2*groupA[1] {
		t.Errorf("pattern A rates = %v, want output 0 dominant", groupA)
	}
	groupB := drive([]float64{0, 0, 1, 1}, 500)
	if groupB[1] <= 2*groupB[0] {
		t.Errorf("pattern B rates = %v, want output 1 dominant", groupB)
	}
}

func TestEnergyModelAgainstDenseMLP(t *testing.T) {
	// The headline SNN claim: at low input activity, the event-driven
	// cost beats the dense MAC cost by roughly (activity × AC/MAC ratio).
	rng := detrand.New(6)
	n, err := NewNetwork(RandLayer(rng, 64, 32, DefaultLIF()))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewPoissonEncoder(3, 0.1) // sparse input: ~10% activity
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, 64)
	for i := range values {
		values[i] = 1
	}
	const steps = 1000
	for s := 0; s < steps; s++ {
		if _, err := n.Step(enc.Encode(values)); err != nil {
			t.Fatal(err)
		}
	}
	em := EnergyFromMAC(mac.NanGate45.EnergyPerStep())
	seconds := 1.0
	snnPower := em.Power(n.SynapticEvents(), seconds)
	// The dense MLP executes every synapse every step as a full MAC.
	denseJoules := float64(n.DenseEquivalentEvents()) * mac.NanGate45.EnergyPerStep().Joules()
	densePower := denseJoules / seconds
	if snnPower.Watts() >= densePower*0.2 {
		t.Errorf("SNN power %v not well below dense %v W at 10%% activity", snnPower, densePower)
	}
	if af := n.ActivityFactor(); math.Abs(af-0.1) > 0.03 {
		t.Errorf("activity factor = %v, want ≈0.10", af)
	}
}

func TestPoissonEncoderRates(t *testing.T) {
	enc, err := NewPoissonEncoder(9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if enc.Encode([]float64{0.5})[0] == 1 {
			count++
		}
	}
	got := float64(count) / trials
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("rate at value 0.5 = %v, want ≈0.25", got)
	}
	// Clamping.
	s := enc.Encode([]float64{-1, 2})
	if s[0] != 0 {
		t.Errorf("negative value should never spike immediately... got %v", s[0])
	}
	if _, err := NewPoissonEncoder(1, 0); err == nil {
		t.Errorf("zero max rate should fail")
	}
	if _, err := NewPoissonEncoder(1, 1.5); err == nil {
		t.Errorf("max rate above 1 should fail")
	}
}

func TestActivityMonotoneProperty(t *testing.T) {
	// Higher input activity → more synaptic events.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func() *Network {
			r := detrand.New(42)
			n, err := NewNetwork(RandLayer(r, 32, 16, DefaultLIF()))
			if err != nil {
				return nil
			}
			return n
		}
		lowNet, highNet := build(), build()
		if lowNet == nil || highNet == nil {
			return false
		}
		encLow, err1 := NewPoissonEncoder(rng.Int63(), 0.05)
		encHigh, err2 := NewPoissonEncoder(rng.Int63(), 0.6)
		if err1 != nil || err2 != nil {
			return false
		}
		values := make([]float64, 32)
		for i := range values {
			values[i] = 1
		}
		for s := 0; s < 200; s++ {
			if _, err := lowNet.Step(encLow.Encode(values)); err != nil {
				return false
			}
			if _, err := highNet.Step(encHigh.Encode(values)); err != nil {
				return false
			}
		}
		return lowNet.SynapticEvents() < highNet.SynapticEvents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewLayer(nil, DefaultLIF()); err == nil {
		t.Errorf("empty weights should fail")
	}
	if _, err := NewLayer([][]float64{{1, 2}, {1}}, DefaultLIF()); err == nil {
		t.Errorf("ragged weights should fail")
	}
	if _, err := NewLayer([][]float64{{1}}, LIF{Leak: 0, Threshold: 1}); err == nil {
		t.Errorf("bad params should fail")
	}
	if _, err := NewNetwork(); err == nil {
		t.Errorf("empty network should fail")
	}
	rng := detrand.New(1)
	if _, err := NewNetwork(RandLayer(rng, 4, 3, DefaultLIF()), RandLayer(rng, 5, 2, DefaultLIF())); err == nil {
		t.Errorf("mismatched layers should fail")
	}
	l := RandLayer(rng, 4, 2, DefaultLIF())
	if _, _, err := l.Step(make([]byte, 3)); err == nil {
		t.Errorf("wrong input length should fail")
	}
}

func TestEnergyModelEdges(t *testing.T) {
	em := EnergyFromMAC(mac.NanGate45.EnergyPerStep())
	if em.Power(100, 0) != 0 {
		t.Errorf("zero duration should give zero power")
	}
	if em.PerEvent.Joules() >= mac.NanGate45.EnergyPerStep().Joules() {
		t.Errorf("accumulate must cost less than a full MAC")
	}
	rng := detrand.New(2)
	n, _ := NewNetwork(RandLayer(rng, 4, 2, DefaultLIF()))
	if n.ActivityFactor() != 0 {
		t.Errorf("fresh network activity factor should be 0")
	}
}
