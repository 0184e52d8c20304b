package nn

import (
	"math"
	"testing"
	"testing/quick"

	"mindful/internal/detrand"
	"mindful/internal/fixed"
)

func TestDenseForwardKnown(t *testing.T) {
	d, err := NewDense([][]float64{{1, 2}, {-1, 0.5}}, []float64{0.5, 0}, Identity)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Forward(FromVector([]float64{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Data[0]-8.5) > 1e-12 || math.Abs(out.Data[1]+0.5) > 1e-12 {
		t.Errorf("dense output = %v", out.Data)
	}
}

func TestDenseReLU(t *testing.T) {
	d, err := NewDense([][]float64{{1}, {-1}}, []float64{0, 0}, ReLU)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Forward(FromVector([]float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 2 || out.Data[1] != 0 {
		t.Errorf("ReLU output = %v", out.Data)
	}
}

func TestDenseValidation(t *testing.T) {
	if _, err := NewDense(nil, nil, Identity); err == nil {
		t.Errorf("empty weights should fail")
	}
	if _, err := NewDense([][]float64{{1, 2}, {1}}, []float64{0, 0}, Identity); err == nil {
		t.Errorf("ragged weights should fail")
	}
	if _, err := NewDense([][]float64{{1}}, []float64{0, 0}, Identity); err == nil {
		t.Errorf("bias mismatch should fail")
	}
	d, _ := NewDense([][]float64{{1, 2}}, []float64{0}, Identity)
	if _, err := d.Forward(FromVector([]float64{1})); err == nil {
		t.Errorf("wrong input size should fail")
	}
}

func TestDenseMACsMatchPaperDefinition(t *testing.T) {
	// Matrix-vector: #MAC_op = out rows, MAC_seq = in columns (Fig. 8).
	d, _ := NewDense(make2D(4, 3), make([]float64, 4), Identity)
	p, err := d.MACs(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops != 4 || p.Seq != 3 {
		t.Errorf("dense MACs = %+v, want {4 3}", p)
	}
	if p.Total() != 12 {
		t.Errorf("total = %d", p.Total())
	}
}

func make2D(r, c int) [][]float64 {
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
	}
	return out
}

func TestConvForwardKnown(t *testing.T) {
	// One input channel, one kernel [1, -1]: discrete difference.
	cv, err := NewConv1D([][][]float64{{{1, -1}}}, []float64{0}, 1, Identity)
	if err != nil {
		t.Fatal(err)
	}
	in := Tensor{Ch: 1, Len: 4, Data: []float64{1, 3, 6, 10}}
	out, err := cv.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, -3, -4}
	for i := range want {
		if math.Abs(out.Data[i]-want[i]) > 1e-12 {
			t.Errorf("conv[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestConvMACsMatchPaperExample(t *testing.T) {
	// Fig. 8's convolution: 2 input channels, 1 output channel, kernel 4,
	// output size 4 → #MAC_op = 4, MAC_seq = 8.
	kernels := [][][]float64{{make([]float64, 4), make([]float64, 4)}}
	cv, err := NewConv1D(kernels, []float64{0}, 1, Identity)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cv.MACs(2, 7) // length 7, K=4, stride 1 → 4 outputs
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops != 4 || p.Seq != 8 {
		t.Errorf("conv MACs = %+v, want {4 8}", p)
	}
}

func TestConvStrideAndValidation(t *testing.T) {
	kernels := [][][]float64{{{1, 1, 1}}}
	cv, err := NewConv1D(kernels, []float64{0}, 2, Identity)
	if err != nil {
		t.Fatal(err)
	}
	_, ol, err := cv.OutShape(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ol != 4 {
		t.Errorf("strided output length = %d, want 4", ol)
	}
	if _, err := NewConv1D(nil, nil, 1, Identity); err == nil {
		t.Errorf("empty kernels should fail")
	}
	if _, err := NewConv1D(kernels, []float64{0}, 0, Identity); err == nil {
		t.Errorf("zero stride should fail")
	}
	if _, err := NewConv1D(kernels, []float64{0, 0}, 1, Identity); err == nil {
		t.Errorf("bias mismatch should fail")
	}
	if _, _, err := cv.OutShape(2, 9); err == nil {
		t.Errorf("channel mismatch should fail")
	}
	if _, _, err := cv.OutShape(1, 2); err == nil {
		t.Errorf("too-short input should fail")
	}
}

func TestDenseBlockConcatenation(t *testing.T) {
	rng := detrand.New(2)
	// K=1 convolutions preserve length; channels grow 4 → 4+8 → 12+8.
	b := &DenseBlock{Convs: []*Conv1D{
		RandConv1D(rng, 4, 8, 1, 1, ReLU),
		RandConv1D(rng, 12, 8, 1, 1, ReLU),
	}}
	ch, ln, err := b.OutShape(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 20 || ln != 16 {
		t.Errorf("block shape = %d×%d, want 20×16", ch, ln)
	}
	in := NewTensor(4, 16)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	out, err := b.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ch != 20 || out.Len != 16 {
		t.Errorf("forward shape = %d×%d", out.Ch, out.Len)
	}
	// The first 4 channels are the input passed through.
	for i := 0; i < 4*16; i++ {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("dense block must carry input forward")
		}
	}
	if b.Params() == 0 {
		t.Errorf("block params = 0")
	}
	p, err := b.MACs(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	// conv1: 8×16 ops, seq 4; conv2: 8×16 ops, seq 12.
	if p.Ops != 256 {
		t.Errorf("block ops = %d, want 256", p.Ops)
	}
	if p.Seq != 8 { // (128·4 + 128·12)/256 = 8
		t.Errorf("block seq = %d, want 8", p.Seq)
	}
}

func TestNetworkComposition(t *testing.T) {
	rng := detrand.New(3)
	net, err := NewNetwork(1, 128,
		RandDense(rng, 128, 64, ReLU),
		RandDense(rng, 64, 40, Identity),
	)
	if err != nil {
		t.Fatal(err)
	}
	in := FromVector(randVec(rng, 128))
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 40 {
		t.Errorf("output size = %d", out.Size())
	}
	if got := net.Params(); got != 128*64+64+64*40+40 {
		t.Errorf("params = %d", got)
	}
	total, err := net.TotalMACs()
	if err != nil {
		t.Fatal(err)
	}
	if total != 128*64+64*40 {
		t.Errorf("total MACs = %d", total)
	}
	// Mismatched shapes fail fast.
	if _, err := NewNetwork(1, 100, RandDense(rng, 128, 64, ReLU)); err == nil {
		t.Errorf("shape mismatch should fail at construction")
	}
	if _, err := net.Forward(FromVector(randVec(rng, 100))); err == nil {
		t.Errorf("wrong input shape should fail")
	}
	if _, err := NewNetwork(1, 10); err == nil {
		t.Errorf("empty network should fail")
	}
}

func randVec(rng *detrand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSoftmaxAndArgmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := p[0] + p[1] + p[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	if p[2] <= p[1] || p[1] <= p[0] {
		t.Errorf("softmax not monotone: %v", p)
	}
	if Argmax(p) != 2 {
		t.Errorf("argmax = %d", Argmax(p))
	}
	if Argmax(nil) != -1 {
		t.Errorf("empty argmax should be -1")
	}
	// Large logits must not overflow.
	q := Softmax([]float64{1000, 1001})
	if math.IsNaN(q[0]) || math.Abs(q[0]+q[1]-1) > 1e-12 {
		t.Errorf("softmax overflow: %v", q)
	}
	if got := Softmax(nil); got != nil {
		t.Errorf("empty softmax should pass through")
	}
}

func TestSoftmaxProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		a, b, c = math.Mod(a, 50), math.Mod(b, 50), math.Mod(c, 50)
		p := Softmax([]float64{a, b, c})
		sum := 0.0
		for _, x := range p {
			if x < 0 || x > 1 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizedDenseTracksFloat(t *testing.T) {
	rng := detrand.New(4)
	d := RandDense(rng, 64, 16, ReLU)
	in := randVec(rng, 64)
	want, err := d.Forward(FromVector(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := QuantizedDense(d, in, fixed.Q7)
	if err != nil {
		t.Fatal(err)
	}
	// int8 arithmetic over 64-long dot products: expect small relative
	// error on the output scale.
	scale := maxAbs(want.Data)
	for i := range got {
		if math.Abs(got[i]-want.Data[i]) > 0.08*scale+0.02 {
			t.Errorf("output %d: quantized %v vs float %v", i, got[i], want.Data[i])
		}
	}
	if _, err := QuantizedDense(d, in[:10], fixed.Q7); err == nil {
		t.Errorf("wrong input length should fail")
	}
}

func TestQuantizedClassificationAgrees(t *testing.T) {
	// For a classifier, int8 inference should pick the same class as
	// float inference on the vast majority of random inputs.
	rng := detrand.New(5)
	d := RandDense(rng, 32, 10, Identity)
	agree := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		in := randVec(rng, 32)
		want, err := d.Forward(FromVector(in))
		if err != nil {
			t.Fatal(err)
		}
		got, err := QuantizedDense(d, in, fixed.Q7)
		if err != nil {
			t.Fatal(err)
		}
		if Argmax(got) == Argmax(want.Data) {
			agree++
		}
	}
	if agree < trials*90/100 {
		t.Errorf("int8/float argmax agreement %d/%d, want ≥90%%", agree, trials)
	}
}

func TestQuantizedDenseZeroInput(t *testing.T) {
	rng := detrand.New(6)
	d := RandDense(rng, 8, 4, Identity)
	out, err := QuantizedDense(d, make([]float64, 8), fixed.Q7)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != d.Bias[i] {
			t.Errorf("zero input output %d = %v, want bias", i, v)
		}
	}
}

func TestTensorHelpers(t *testing.T) {
	tt := NewTensor(2, 3)
	tt.Set(1, 2, 7)
	if tt.At(1, 2) != 7 {
		t.Errorf("At/Set broken")
	}
	if tt.Size() != 6 {
		t.Errorf("Size = %d", tt.Size())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("invalid tensor shape should panic")
			}
		}()
		NewTensor(0, 1)
	}()
	v := FromVector([]float64{1, 2})
	v.Data[0] = 9
	// FromVector must copy.
	src := []float64{1, 2}
	w := FromVector(src)
	src[0] = 100
	if w.Data[0] == 100 {
		t.Errorf("FromVector aliases input")
	}
}
