// Package model defines the six-benchmark suite of the PolygraphMR paper
// (Table II) — LeNet-5/MNIST, ConvNet/CIFAR-10, ResNet20/CIFAR-10,
// DenseNet40/CIFAR-10, AlexNet/ImageNet, ResNet34/ImageNet — and "the
// zoo", which loads each (benchmark, variant) member's committed weights
// and recorded outputs; Zoo.Train, called by cmd/pgmr-train, writes them.
//
// Substitution note (DESIGN.md §1): datasets are the synthetic substitutes
// from internal/dataset, and each topology keeps its structural family
// (plain conv stack, residual, densely-connected) while channel counts are
// scaled down so a single CPU can train the full zoo. The paper's claims are
// about the *relative* behaviour of six baselines with distinct accuracy
// levels and depths, which the scaled suite preserves.
package model

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// Benchmark describes one (CNN, dataset) pair of the evaluation suite.
type Benchmark struct {
	// Name is the stable identifier, e.g. "resnet20".
	Name string
	// Display is the paper-style label, e.g. "ResNet20 / CIFAR10".
	Display string
	// DatasetName keys into the dataset package ("synthcifar", ...).
	DatasetName string
	// PaperAccuracy is the top-1 accuracy the paper reports (Table II).
	PaperAccuracy float64
	// PaperLayers is the layer count the paper reports (Table II).
	PaperLayers int
	// Build constructs the (untrained) network for this benchmark.
	Build func(rng *rand.Rand, classes int, inShape []int) *nn.Network
	// Train is the training recipe.
	Train nn.TrainConfig
}

// Benchmarks returns the six-benchmark suite in the paper's Table II order.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{
			Name: "lenet5", Display: "LeNet-5 / MNIST", DatasetName: "synthmnist",
			PaperAccuracy: 0.9901, PaperLayers: 5,
			Build: buildLeNet5,
			Train: nn.TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.015, WeightDecay: 1e-4},
		},
		{
			Name: "convnet", Display: "ConvNet / CIFAR10", DatasetName: "synthcifar",
			PaperAccuracy: 0.7470, PaperLayers: 4,
			Build: buildConvNet,
			Train: nn.TrainConfig{Epochs: 3, BatchSize: 8, LR: 0.01, WeightDecay: 1e-4},
		},
		{
			Name: "resnet20", Display: "ResNet20 / CIFAR10", DatasetName: "synthcifar",
			PaperAccuracy: 0.9150, PaperLayers: 20,
			Build: buildResNet20,
			Train: nn.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.012, WeightDecay: 1e-4},
		},
		{
			Name: "densenet40", Display: "DenseNet40 / CIFAR10", DatasetName: "synthcifar",
			PaperAccuracy: 0.9307, PaperLayers: 40,
			Build: buildDenseNet40,
			Train: nn.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.01, WeightDecay: 1e-4},
		},
		{
			Name: "alexnet", Display: "AlexNet / ImageNet", DatasetName: "synthimagenet",
			PaperAccuracy: 0.5740, PaperLayers: 8,
			Build: buildAlexNet,
			Train: nn.TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.01, WeightDecay: 1e-4},
		},
		{
			Name: "resnet34", Display: "ResNet34 / ImageNet", DatasetName: "synthimagenet",
			PaperAccuracy: 0.7146, PaperLayers: 34,
			Build: buildResNet34,
			Train: nn.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.01, ClipNorm: 2, WeightDecay: 1e-4},
		},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("model: unknown benchmark %q", name)
}

// buildLeNet5 is the classic LeNet-5 topology: two 5×5 conv/pool stages and
// two fully connected layers.
func buildLeNet5(rng *rand.Rand, classes int, in []int) *nn.Network {
	return nn.MustNetwork(in, classes,
		nn.NewConv2D(in[0], 6, 5, 1, 2, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(6, 12, 5, 1, 0, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(),
		nn.NewDense(12*5*5, 60, rng), nn.NewReLU(),
		nn.NewDense(60, classes, rng),
	)
}

// buildConvNet is the cuda-convnet-style stack: three conv/pool stages and a
// linear classifier. This is the paper's lowest-accuracy CIFAR baseline.
func buildConvNet(rng *rand.Rand, classes int, in []int) *nn.Network {
	return nn.MustNetwork(in, classes,
		nn.NewConv2D(in[0], 8, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(8, 12, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(12, 16, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(),
		nn.NewDense(16*(in[1]/8)*(in[2]/8), classes, rng),
	)
}

// buildResNet20 is the CIFAR ResNet with three stages of three residual
// blocks (paper: 16/32/64 channels with batch norm and a global-average-pool
// head; scaled here to 8/16/24 normalization-free blocks with a dense head —
// the per-sample EMA normalization substitute destabilizes long residual
// chains, and global average pooling destroys the texture-phase features the
// synthetic classes depend on).
func buildResNet20(rng *rand.Rand, classes int, in []int) *nn.Network {
	h8, w8 := in[1]/8, in[2]/8
	return nn.MustNetwork(in, classes,
		nn.NewConv2D(in[0], 8, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewPlainResidualBlock(8, 8, 1, rng),
		nn.NewPlainResidualBlock(8, 8, 1, rng),
		nn.NewPlainResidualBlock(8, 8, 1, rng),
		nn.NewPlainResidualBlock(8, 16, 2, rng),
		nn.NewPlainResidualBlock(16, 16, 1, rng),
		nn.NewPlainResidualBlock(16, 16, 1, rng),
		nn.NewPlainResidualBlock(16, 24, 2, rng),
		nn.NewPlainResidualBlock(24, 24, 1, rng),
		nn.NewPlainResidualBlock(24, 24, 1, rng),
		nn.NewFlatten(),
		nn.NewDense(24*h8*w8, classes, rng),
	)
}

// buildDenseNet40 is a densely connected network: two stages of growth
// units separated by pooling (paper: growth 12 over 40 layers; scaled to
// growth 6/8 over two stages with a dense head).
func buildDenseNet40(rng *rand.Rand, classes int, in []int) *nn.Network {
	h8, w8 := in[1]/8, in[2]/8
	return nn.MustNetwork(in, classes,
		nn.NewConv2D(in[0], 8, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewDenseUnit(8, 6, rng),
		nn.NewDenseUnit(14, 6, rng),
		nn.NewDenseUnit(20, 6, rng),
		nn.NewDenseUnit(26, 6, rng),
		nn.NewMaxPool2D(2),
		nn.NewDenseUnit(32, 8, rng),
		nn.NewDenseUnit(40, 8, rng),
		nn.NewDenseUnit(48, 8, rng),
		nn.NewMaxPool2D(2),
		nn.NewFlatten(),
		nn.NewDense(56*h8*w8, classes, rng),
	)
}

// buildAlexNet is the AlexNet-family stack: large early kernels, deep conv
// trunk, wide fully connected head.
func buildAlexNet(rng *rand.Rand, classes int, in []int) *nn.Network {
	h8, w8 := in[1]/2/2/2, in[2]/2/2/2
	return nn.MustNetwork(in, classes,
		nn.NewConv2D(in[0], 9, 5, 1, 2, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(9, 16, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(16, 20, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewConv2D(20, 20, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(),
		nn.NewDense(20*h8*w8, 80, rng), nn.NewReLU(),
		nn.NewDense(80, classes, rng),
	)
}

// buildResNet34 is the deeper, wider residual network for the ImageNet
// substitute (paper: four stages, 64–512 channels; scaled to two stages of
// normalization-free residual blocks at 12/24 channels with a dense head).
func buildResNet34(rng *rand.Rand, classes int, in []int) *nn.Network {
	h4, w4 := in[1]/4, in[2]/4
	return nn.MustNetwork(in, classes,
		nn.NewConv2D(in[0], 12, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewPlainResidualBlock(12, 12, 1, rng),
		nn.NewPlainResidualBlock(12, 12, 1, rng),
		nn.NewPlainResidualBlock(12, 12, 1, rng),
		nn.NewPlainResidualBlock(12, 24, 2, rng),
		nn.NewPlainResidualBlock(24, 24, 1, rng),
		nn.NewPlainResidualBlock(24, 24, 1, rng),
		nn.NewFlatten(),
		nn.NewDense(24*h4*w4, classes, rng),
	)
}

// DatasetConfig returns the dataset configuration for this benchmark at the
// given profile.
func (b Benchmark) DatasetConfig(p dataset.Profile) (dataset.Config, error) {
	cfg, ok := dataset.ByName(b.DatasetName, p)
	if !ok {
		return dataset.Config{}, fmt.Errorf("model: benchmark %s references unknown dataset %q", b.Name, b.DatasetName)
	}
	return cfg, nil
}
