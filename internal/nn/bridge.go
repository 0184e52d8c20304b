package nn

import (
	"fmt"

	"mindful/internal/detrand"
	"mindful/internal/dnnmodel"
)

// BuildFromSpec instantiates a structural dnnmodel.Model as a runnable
// network with Xavier-random weights. It supports dense-only models (the
// MLP family); hidden layers get ReLU, the final layer is linear. This is
// the bridge that lets the analytical workload be *executed*: the same
// object the power framework prices can be run on data, and its measured
// MAC decomposition cross-checked against Eq. (10).
func BuildFromSpec(m dnnmodel.Model, seed int64) (*Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rng := detrand.New(seed)
	layers := make([]Layer, 0, len(m.Layers))
	for i, spec := range m.Layers {
		if spec.Kind != dnnmodel.DenseKind {
			return nil, fmt.Errorf("nn: BuildFromSpec supports dense models; layer %d is a convolution", i)
		}
		act := ReLU
		if i == len(m.Layers)-1 {
			act = Identity
		}
		layers = append(layers, RandDense(rng, spec.In, spec.Out, act))
	}
	return NewNetwork(1, m.Layers[0].In, layers...)
}

// BuildConvFromSpec instantiates a structural DN-CNN-family model as a
// runnable network. It walks the flat layer list dnnmodel produces and
// reconstructs the composite structure: a K>1 front convolution, runs of
// K=1 convolutions whose input width exceeds the previous output are
// densely connected (concatenating) block members, K>1 convolutions are
// transitions, trailing K=1 convolutions at constant width are feature
// mixers, and a final dense layer classifies the flattened map.
func BuildConvFromSpec(m dnnmodel.Model, seed int64) (*Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Layers[0].Kind != dnnmodel.ConvKind {
		return nil, fmt.Errorf("nn: BuildConvFromSpec needs a convolutional front layer")
	}
	rng := detrand.New(seed)
	var layers []Layer
	var block *DenseBlock
	flushBlock := func() {
		if block != nil {
			layers = append(layers, block)
			block = nil
		}
	}
	for i, spec := range m.Layers {
		switch {
		case spec.Kind == dnnmodel.DenseKind:
			flushBlock()
			if i != len(m.Layers)-1 {
				return nil, fmt.Errorf("nn: dense layer %d before the end of a conv model", i)
			}
			layers = append(layers, RandDense(rng, spec.In, spec.Out, Identity))
		case spec.K == 1 && i+1 < len(m.Layers) && m.Layers[i+1].In == spec.In+spec.Out && i > 0:
			// Densely connected member: the next layer consumes the
			// concatenation of this layer's input and output.
			if block == nil {
				block = &DenseBlock{}
			}
			block.Convs = append(block.Convs, RandConv1D(rng, spec.In, spec.Out, 1, 1, ReLU))
		default:
			flushBlock()
			layers = append(layers, RandConv1D(rng, spec.In, spec.Out, spec.K, 1, ReLU))
		}
	}
	flushBlock()
	return NewNetwork(m.Layers[0].In, m.Layers[0].InLen, layers...)
}

// VerifyAgainstSpec checks that a network's measured per-layer MAC
// decomposition matches the structural model's f_MAC exactly (Eq. 10). It
// returns a descriptive error on the first mismatch.
func VerifyAgainstSpec(n *Network, m dnnmodel.Model) error {
	profiles, err := n.MACProfiles()
	if err != nil {
		return err
	}
	if len(profiles) != len(m.Layers) {
		return fmt.Errorf("nn: %d layers vs %d specs", len(profiles), len(m.Layers))
	}
	for i, p := range profiles {
		spec := m.Layers[i]
		if p.Ops != spec.MACOps() || p.Seq != spec.MACSeq() {
			return fmt.Errorf("nn: layer %d MACs (%d×%d) != spec f_MAC (%d×%d)",
				i, p.Ops, p.Seq, spec.MACOps(), spec.MACSeq())
		}
	}
	total, err := n.TotalMACs()
	if err != nil {
		return err
	}
	if total != m.TotalMACs() {
		return fmt.Errorf("nn: total MACs %d != spec %d", total, m.TotalMACs())
	}
	return nil
}
