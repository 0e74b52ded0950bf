package perf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func testNet(t *testing.T) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(70))
	return nn.MustNetwork([]int{3, 16, 16}, 4,
		nn.NewConv2D(3, 8, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(8, 12, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(12*4*4, 4, rng),
	)
}

func TestNetworkLayerCosts(t *testing.T) {
	net := testNet(t)
	costs32 := NetworkLayerCosts(net, 32)
	costs16 := NetworkLayerCosts(net, 16)
	if len(costs32) != len(net.Layers) {
		t.Fatalf("layer costs %d, want %d", len(costs32), len(net.Layers))
	}
	for i := range costs32 {
		if costs32[i].MACs != costs16[i].MACs {
			t.Error("MACs should not depend on precision")
		}
		if costs32[i].Bytes != 2*costs16[i].Bytes {
			t.Errorf("layer %d: 16-bit bytes %v not half of 32-bit %v", i, costs16[i].Bytes, costs32[i].Bytes)
		}
	}
	// bits<=0 defaults to 32.
	costsDefault := NetworkLayerCosts(net, 0)
	if costsDefault[0].Bytes != costs32[0].Bytes {
		t.Error("default bits not 32")
	}
}

func TestInferenceCostScalesWithPrecision(t *testing.T) {
	g := TitanX()
	net := testNet(t)
	full := InferenceCost(g, net, 32)
	half := InferenceCost(g, net, 16)
	if half.Energy >= full.Energy {
		t.Errorf("16-bit energy %v not below 32-bit %v", half.Energy, full.Energy)
	}
	if half.Latency > full.Latency {
		t.Errorf("16-bit latency %v above 32-bit %v", half.Latency, full.Latency)
	}
	if full.Energy <= 0 || full.Latency <= 0 {
		t.Error("non-positive cost")
	}
}

func TestMemoryBoundRegime(t *testing.T) {
	// The model must be memory-dominated at batch 1 and fp32 — the regime
	// the paper's RAMR savings depend on.
	g := TitanX()
	net := testNet(t)
	frac := MemoryBoundFraction(g, NetworkLayerCosts(net, 32))
	if frac < 0.5 {
		t.Errorf("memory-bound fraction %.2f; model is compute-dominated", frac)
	}
}

func TestSystemCostSequentialScaling(t *testing.T) {
	member := Cost{Energy: 1, Latency: 0.01}
	cfg := SystemConfig{
		MemberCosts: []Cost{member, member, member, member},
		GPUs:        1,
	}
	// Full activation of 4 members: 4× energy and latency.
	full, err := SystemCost(cfg, FullActivations(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Energy-4) > 1e-12 || math.Abs(full.Latency-0.04) > 1e-12 {
		t.Errorf("full cost %+v, want 4 / 0.04", full)
	}
	// Mean activation of 2 halves both.
	staged, err := SystemCost(cfg, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(staged.Energy-2) > 1e-12 || math.Abs(staged.Latency-0.02) > 1e-12 {
		t.Errorf("staged cost %+v", staged)
	}
}

func TestSystemCostTwoGPUs(t *testing.T) {
	member := Cost{Energy: 1, Latency: 0.01}
	cfg := SystemConfig{
		MemberCosts: []Cost{member, member, member, member},
		GPUs:        2,
	}
	c, err := SystemCost(cfg, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds of two parallel members: latency halves, energy unchanged.
	if math.Abs(c.Latency-0.02) > 1e-12 {
		t.Errorf("2-GPU latency %v, want 0.02", c.Latency)
	}
	if math.Abs(c.Energy-4) > 1e-12 {
		t.Errorf("2-GPU energy %v, want 4 (parallelism saves no energy)", c.Energy)
	}
	// Odd activation count: ceil(3/2)=2 rounds.
	c3, _ := SystemCost(cfg, []int{3})
	if math.Abs(c3.Latency-0.02) > 1e-12 {
		t.Errorf("3-member 2-GPU latency %v", c3.Latency)
	}
}

func TestSystemCostOverheadsAndClamping(t *testing.T) {
	cfg := SystemConfig{
		MemberCosts:    []Cost{{Energy: 1, Latency: 0.01}, {Energy: 1, Latency: 0.01}},
		PreprocessCost: Cost{Energy: 0.1, Latency: 0.001},
		DecisionCost:   Cost{Energy: 0.05, Latency: 0.0005},
		GPUs:           1,
	}
	c, err := SystemCost(cfg, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	wantE := 2*1.1 + 0.05
	wantL := 2*0.011 + 0.0005
	if math.Abs(c.Energy-wantE) > 1e-12 || math.Abs(c.Latency-wantL) > 1e-12 {
		t.Errorf("cost %+v, want %v / %v", c, wantE, wantL)
	}
	// Out-of-range activations clamp to [1, n].
	clamped, _ := SystemCost(cfg, []int{0, 99})
	if clamped.Energy <= 0 {
		t.Error("clamped activations produced no cost")
	}
	if _, err := SystemCost(SystemConfig{}, []int{1}); err == nil {
		t.Error("empty member costs accepted")
	}
	if _, err := SystemCost(cfg, nil); err == nil {
		t.Error("empty activations accepted")
	}
}

func TestRAMRSavingShape(t *testing.T) {
	// The headline cost mechanism: a 4-member system at 14 bits with ~2.3
	// mean activations must cost well under 4× baseline and within ~2×.
	g := TitanX()
	net := testNet(t)
	base := InferenceCost(g, net, 32)
	member14 := InferenceCost(g, net, 14)
	cfg := SystemConfig{MemberCosts: []Cost{member14, member14, member14, member14}, GPUs: 1}
	activations := []int{2, 2, 2, 3, 4, 2, 2, 2, 2, 2} // mean 2.3
	c, err := SystemCost(cfg, activations)
	if err != nil {
		t.Fatal(err)
	}
	ratio := c.Energy / base.Energy
	if ratio > 2.3 || ratio < 1.0 {
		t.Errorf("optimized system energy ratio %.2f; expected within (1.0, 2.3]", ratio)
	}
}
