// Package nn is a small DNN inference engine for the network families the
// paper evaluates on-implant: multi-layer perceptrons and densely connected
// 1-D convolutional networks (the DN-CNN). It exists to prove the
// analytical framework's workloads are executable: the same topologies that
// internal/dnnmodel prices analytically can be instantiated here and run on
// synthetic ECoG, in float64 or in the accelerator's 8-bit fixed-point
// arithmetic (via internal/fixed).
//
// Every layer reports its #MAC_op and MAC_seq exactly as Section 5.3
// defines them, so the engine and the analytical model can be
// cross-checked.
package nn

import (
	"fmt"
	"math"

	"mindful/internal/detrand"
	"mindful/internal/fixed"
)

// Tensor is a channels × length activation map. Dense layers use Ch = 1.
type Tensor struct {
	Ch, Len int
	Data    []float64
}

// NewTensor allocates a zero tensor.
func NewTensor(ch, ln int) Tensor {
	if ch <= 0 || ln <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %d×%d", ch, ln))
	}
	return Tensor{Ch: ch, Len: ln, Data: make([]float64, ch*ln)}
}

// FromVector wraps a flat vector as a 1×n tensor.
func FromVector(v []float64) Tensor {
	d := make([]float64, len(v))
	copy(d, v)
	return Tensor{Ch: 1, Len: len(v), Data: d}
}

// At returns element (c, i).
func (t Tensor) At(c, i int) float64 { return t.Data[c*t.Len+i] }

// Set assigns element (c, i).
func (t Tensor) Set(c, i int, v float64) { t.Data[c*t.Len+i] = v }

// Size returns the number of elements.
func (t Tensor) Size() int { return t.Ch * t.Len }

// MACProfile is the paper's per-layer decomposition: #MAC_op independent
// multiply-accumulate sequences, each MAC_seq steps long (Eq. 10 / Fig. 8).
type MACProfile struct {
	Ops int // #MAC_op: independent dot products
	Seq int // MAC_seq: accumulation steps per dot product
}

// Total returns the layer's total MAC steps, Ops × Seq.
func (p MACProfile) Total() int { return p.Ops * p.Seq }

// Layer is one feed-forward stage.
type Layer interface {
	// Forward computes the layer output.
	Forward(in Tensor) (Tensor, error)
	// OutShape returns the output shape for a given input shape.
	OutShape(ch, ln int) (int, int, error)
	// MACs returns the paper's MAC decomposition for a given input shape.
	MACs(ch, ln int) (MACProfile, error)
	// Params returns the number of trainable parameters.
	Params() int
}

// Activation is an element-wise non-linearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
)

func (a Activation) apply(x float64) float64 {
	if a == ReLU && x < 0 {
		return 0
	}
	return x
}

// Dense is a fully connected layer on flattened input.
type Dense struct {
	// W is Out×In row-major.
	W    [][]float64
	Bias []float64
	Act  Activation
}

// NewDense constructs a dense layer; W must be rectangular with
// len(W) == len(bias).
func NewDense(w [][]float64, bias []float64, act Activation) (*Dense, error) {
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, fmt.Errorf("nn: empty weight matrix")
	}
	for i, row := range w {
		if len(row) != len(w[0]) {
			return nil, fmt.Errorf("nn: ragged weights at row %d", i)
		}
	}
	if len(bias) != len(w) {
		return nil, fmt.Errorf("nn: bias length %d != %d outputs", len(bias), len(w))
	}
	return &Dense{W: w, Bias: bias, Act: act}, nil
}

// Forward implements Layer.
func (d *Dense) Forward(in Tensor) (Tensor, error) {
	if in.Size() != len(d.W[0]) {
		return Tensor{}, fmt.Errorf("nn: dense input %d != %d", in.Size(), len(d.W[0]))
	}
	out := NewTensor(1, len(d.W))
	for o, row := range d.W {
		s := d.Bias[o]
		for i, w := range row {
			s += w * in.Data[i]
		}
		out.Data[o] = d.Act.apply(s)
	}
	return out, nil
}

// OutShape implements Layer.
func (d *Dense) OutShape(ch, ln int) (int, int, error) {
	if ch*ln != len(d.W[0]) {
		return 0, 0, fmt.Errorf("nn: dense input %d != %d", ch*ln, len(d.W[0]))
	}
	return 1, len(d.W), nil
}

// MACs implements Layer: one MAC_op per output neuron, each accumulating
// over the full input (the paper's matrix-vector case).
func (d *Dense) MACs(ch, ln int) (MACProfile, error) {
	if _, _, err := d.OutShape(ch, ln); err != nil {
		return MACProfile{}, err
	}
	return MACProfile{Ops: len(d.W), Seq: len(d.W[0])}, nil
}

// Params implements Layer.
func (d *Dense) Params() int { return len(d.W)*len(d.W[0]) + len(d.Bias) }

// Conv1D is a 1-D convolution with valid padding.
type Conv1D struct {
	// Kernels is OutCh × InCh × K.
	Kernels [][][]float64
	Bias    []float64
	Stride  int
	Act     Activation
}

// NewConv1D validates shapes and returns the layer.
func NewConv1D(kernels [][][]float64, bias []float64, stride int, act Activation) (*Conv1D, error) {
	if len(kernels) == 0 || len(kernels[0]) == 0 || len(kernels[0][0]) == 0 {
		return nil, fmt.Errorf("nn: empty kernel bank")
	}
	inCh, k := len(kernels[0]), len(kernels[0][0])
	for o, oc := range kernels {
		if len(oc) != inCh {
			return nil, fmt.Errorf("nn: kernel %d input channels %d != %d", o, len(oc), inCh)
		}
		for c, ker := range oc {
			if len(ker) != k {
				return nil, fmt.Errorf("nn: kernel %d/%d width %d != %d", o, c, len(ker), k)
			}
		}
	}
	if len(bias) != len(kernels) {
		return nil, fmt.Errorf("nn: bias length %d != %d output channels", len(bias), len(kernels))
	}
	if stride <= 0 {
		return nil, fmt.Errorf("nn: stride %d must be positive", stride)
	}
	return &Conv1D{Kernels: kernels, Bias: bias, Stride: stride, Act: act}, nil
}

// K returns the kernel width.
func (c *Conv1D) K() int { return len(c.Kernels[0][0]) }

// Forward implements Layer.
func (c *Conv1D) Forward(in Tensor) (Tensor, error) {
	outCh, outLen, err := c.OutShape(in.Ch, in.Len)
	if err != nil {
		return Tensor{}, err
	}
	out := NewTensor(outCh, outLen)
	k := c.K()
	for o := 0; o < outCh; o++ {
		for p := 0; p < outLen; p++ {
			s := c.Bias[o]
			base := p * c.Stride
			for ic := 0; ic < in.Ch; ic++ {
				ker := c.Kernels[o][ic]
				row := in.Data[ic*in.Len:]
				for j := 0; j < k; j++ {
					s += ker[j] * row[base+j]
				}
			}
			out.Set(o, p, c.Act.apply(s))
		}
	}
	return out, nil
}

// OutShape implements Layer.
func (c *Conv1D) OutShape(ch, ln int) (int, int, error) {
	if ch != len(c.Kernels[0]) {
		return 0, 0, fmt.Errorf("nn: conv input channels %d != %d", ch, len(c.Kernels[0]))
	}
	if ln < c.K() {
		return 0, 0, fmt.Errorf("nn: conv input length %d < kernel %d", ln, c.K())
	}
	return len(c.Kernels), (ln-c.K())/c.Stride + 1, nil
}

// MACs implements Layer: one MAC_op per output position per output channel,
// each accumulating over K × InCh steps (the paper's convolution case).
func (c *Conv1D) MACs(ch, ln int) (MACProfile, error) {
	outCh, outLen, err := c.OutShape(ch, ln)
	if err != nil {
		return MACProfile{}, err
	}
	return MACProfile{Ops: outCh * outLen, Seq: c.K() * ch}, nil
}

// Params implements Layer.
func (c *Conv1D) Params() int {
	return len(c.Kernels)*len(c.Kernels[0])*c.K() + len(c.Bias)
}

// DenseBlock is the densely connected composite the DN-CNN uses: each
// inner convolution sees the concatenation of the block input and all
// previous inner outputs.
type DenseBlock struct {
	Convs []*Conv1D
}

// Forward implements Layer.
func (b *DenseBlock) Forward(in Tensor) (Tensor, error) {
	cur := in
	for i, cv := range b.Convs {
		out, err := cv.Forward(cur)
		if err != nil {
			return Tensor{}, fmt.Errorf("nn: dense block conv %d: %w", i, err)
		}
		if out.Len != cur.Len {
			return Tensor{}, fmt.Errorf("nn: dense block conv %d changed length %d→%d (use stride 1, K odd? valid padding must preserve length K=1)", i, cur.Len, out.Len)
		}
		cur = concat(cur, out)
	}
	return cur, nil
}

// concat stacks two tensors of equal length along channels.
func concat(a, b Tensor) Tensor {
	out := NewTensor(a.Ch+b.Ch, a.Len)
	copy(out.Data, a.Data)
	copy(out.Data[a.Ch*a.Len:], b.Data)
	return out
}

// OutShape implements Layer.
func (b *DenseBlock) OutShape(ch, ln int) (int, int, error) {
	for i, cv := range b.Convs {
		oc, ol, err := cv.OutShape(ch, ln)
		if err != nil {
			return 0, 0, fmt.Errorf("nn: dense block conv %d: %w", i, err)
		}
		if ol != ln {
			return 0, 0, fmt.Errorf("nn: dense block conv %d must preserve length (%d→%d)", i, ln, ol)
		}
		ch += oc
	}
	return ch, ln, nil
}

// MACs implements Layer by summing the member convolutions at their
// growing input widths; Seq is reported as the weighted average sequence
// length (total steps / total ops) to stay within the two-number profile.
func (b *DenseBlock) MACs(ch, ln int) (MACProfile, error) {
	totalOps, totalSteps := 0, 0
	for i, cv := range b.Convs {
		p, err := cv.MACs(ch, ln)
		if err != nil {
			return MACProfile{}, fmt.Errorf("nn: dense block conv %d: %w", i, err)
		}
		totalOps += p.Ops
		totalSteps += p.Total()
		oc, _, err := cv.OutShape(ch, ln)
		if err != nil {
			return MACProfile{}, err
		}
		ch += oc
	}
	if totalOps == 0 {
		return MACProfile{}, nil
	}
	return MACProfile{Ops: totalOps, Seq: (totalSteps + totalOps - 1) / totalOps}, nil
}

// Params implements Layer.
func (b *DenseBlock) Params() int {
	n := 0
	for _, cv := range b.Convs {
		n += cv.Params()
	}
	return n
}

// Network is a feed-forward stack of layers.
type Network struct {
	Layers []Layer
	// InCh and InLen fix the expected input shape.
	InCh, InLen int
}

// NewNetwork validates that the layers compose over the input shape.
func NewNetwork(inCh, inLen int, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	ch, ln := inCh, inLen
	for i, l := range layers {
		var err error
		ch, ln, err = l.OutShape(ch, ln)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return &Network{Layers: layers, InCh: inCh, InLen: inLen}, nil
}

// Forward implements inference.
func (n *Network) Forward(in Tensor) (Tensor, error) {
	if in.Ch != n.InCh || in.Len != n.InLen {
		return Tensor{}, fmt.Errorf("nn: input shape %d×%d != %d×%d", in.Ch, in.Len, n.InCh, n.InLen)
	}
	cur := in
	for i, l := range n.Layers {
		var err error
		cur, err = l.Forward(cur)
		if err != nil {
			return Tensor{}, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return cur, nil
}

// Params returns the total parameter count.
func (n *Network) Params() int {
	t := 0
	for _, l := range n.Layers {
		t += l.Params()
	}
	return t
}

// MACProfiles returns the per-layer MAC decomposition (Eq. 10's f_MAC
// applied to a concrete network).
func (n *Network) MACProfiles() ([]MACProfile, error) {
	out := make([]MACProfile, len(n.Layers))
	ch, ln := n.InCh, n.InLen
	for i, l := range n.Layers {
		p, err := l.MACs(ch, ln)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		out[i] = p
		ch, ln, err = l.OutShape(ch, ln)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return out, nil
}

// TotalMACs returns the whole-network MAC step count.
func (n *Network) TotalMACs() (int, error) {
	ps, err := n.MACProfiles()
	if err != nil {
		return 0, err
	}
	t := 0
	for _, p := range ps {
		t += p.Total()
	}
	return t, nil
}

// Softmax converts logits to probabilities in place and returns the slice.
func Softmax(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	max := xs[0]
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for i, x := range xs {
		xs[i] = math.Exp(x - max)
		sum += xs[i]
	}
	for i := range xs {
		xs[i] /= sum
	}
	return xs
}

// Argmax returns the index of the largest element (-1 for empty input).
func Argmax(xs []float64) int {
	best := -1
	bestV := math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

// RandDense builds a dense layer with Xavier-uniform random weights.
func RandDense(rng *detrand.Rand, in, out int, act Activation) *Dense {
	limit := math.Sqrt(6 / float64(in+out))
	w := make([][]float64, out)
	for o := range w {
		row := make([]float64, in)
		for i := range row {
			row[i] = (rng.Float64()*2 - 1) * limit
		}
		w[o] = row
	}
	d, err := NewDense(w, make([]float64, out), act)
	if err != nil {
		panic(err) // construction is correct by shape
	}
	return d
}

// RandomMLP builds a dense network with Xavier-uniform random weights
// drawn from one seeded stream: sizes lists the layer widths from input
// to output, ReLU between hidden layers and a linear output.
func RandomMLP(seed int64, sizes ...int) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output sizes, got %d", len(sizes))
	}
	rng := detrand.New(seed)
	layers := make([]Layer, 0, len(sizes)-1)
	for i := 0; i+1 < len(sizes); i++ {
		act := ReLU
		if i+2 == len(sizes) {
			act = Identity
		}
		layers = append(layers, RandDense(rng, sizes[i], sizes[i+1], act))
	}
	return NewNetwork(1, sizes[0], layers...)
}

// RandConv1D builds a convolution with Xavier-uniform random kernels.
func RandConv1D(rng *detrand.Rand, inCh, outCh, k, stride int, act Activation) *Conv1D {
	limit := math.Sqrt(6 / float64(inCh*k+outCh*k))
	kernels := make([][][]float64, outCh)
	for o := range kernels {
		kernels[o] = make([][]float64, inCh)
		for c := range kernels[o] {
			ker := make([]float64, k)
			for j := range ker {
				ker[j] = (rng.Float64()*2 - 1) * limit
			}
			kernels[o][c] = ker
		}
	}
	cv, err := NewConv1D(kernels, make([]float64, outCh), stride, act)
	if err != nil {
		panic(err)
	}
	return cv
}

// QuantizedDense runs a dense layer in the accelerator's fixed-point
// arithmetic: weights and activations are quantized to the given format
// with a dynamic per-tensor scale, accumulated exactly, and rescaled. It
// returns the dequantized output, mirroring what the PE array computes.
func QuantizedDense(d *Dense, in []float64, f fixed.Format) ([]float64, error) {
	if len(in) != len(d.W[0]) {
		return nil, fmt.Errorf("nn: quantized dense input %d != %d", len(in), len(d.W[0]))
	}
	inScale := maxAbs(in)
	if inScale == 0 {
		inScale = 1
	}
	wScale := 0.0
	for _, row := range d.W {
		if m := maxAbs(row); m > wScale {
			wScale = m
		}
	}
	if wScale == 0 {
		wScale = 1
	}
	qin := make([]fixed.Value, len(in))
	for i, x := range in {
		qin[i] = fixed.FromFloat(x/inScale, f)
	}
	out := make([]float64, len(d.W))
	qrow := make([]fixed.Value, len(in))
	for o, row := range d.W {
		for i, w := range row {
			qrow[i] = fixed.FromFloat(w/wScale, f)
		}
		acc := fixed.NewAcc(f)
		for i := range qin {
			acc.MAC(qin[i], qrow[i])
		}
		v := acc.Float()*inScale*wScale + d.Bias[o]
		out[o] = d.Act.apply(v)
	}
	return out, nil
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
