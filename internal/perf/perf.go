// Package perf is the analytical GPU performance and energy model that
// substitutes for the paper's GPGPUsim v4.0 + GPUWattch simulation
// (DESIGN.md §1). Per-layer MAC counts and byte traffic come from the
// nn.Counter statistics; latency follows a per-layer roofline
// (max of compute time and memory time plus a kernel-launch overhead) and
// energy is a linear model over MACs and DRAM bytes.
//
// The model captures the two mechanisms the paper's cost results rest on:
//
//   - batch-1 CNN inference is dominated by weight traffic, so packing
//     reduced-precision values cuts both energy and latency roughly in
//     proportion to the bit width (RAMR, §III-D);
//   - a sequential MR system multiplies cost by the number of activated
//     members, so staged activation (RADE) scales cost by the mean
//     activation count, and k GPUs divide latency by up to k (§IV-C).
package perf

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// GPU holds the hardware constants of the analytical model.
type GPU struct {
	// Name identifies the configuration.
	Name string
	// PeakMACs is the sustained compute throughput in MAC/s.
	PeakMACs float64
	// MemBW is the sustained DRAM bandwidth in bytes/s.
	MemBW float64
	// EnergyPerMAC is in joules.
	EnergyPerMAC float64
	// EnergyPerByte is the DRAM access energy in joules.
	EnergyPerByte float64
	// KernelOverhead is the per-layer launch latency in seconds.
	KernelOverhead float64
	// IdlePower is the static power draw in watts, charged over latency.
	IdlePower float64
}

// TitanX returns constants in the regime of the paper's TITAN X (Pascal):
// ~11 TFLOP/s fp32 (5.5e12 MAC/s), ~480 GB/s DRAM, and energy constants
// chosen so that batch-1 inference of the benchmark CNNs is memory-dominated
// (the regime in which the paper's precision packing pays off).
//
// Kernel-launch overhead and idle power are set to zero: the paper's
// full-size networks amortize per-layer launch costs over millions of MACs,
// whereas this repository's scaled-down substitutes would otherwise be
// launch-dominated and hide the precision-scaling mechanism entirely
// (DESIGN.md §1).
func TitanX() GPU {
	return GPU{
		Name:          "TITAN X (Pascal)",
		PeakMACs:      5.5e12,
		MemBW:         480e9,
		EnergyPerMAC:  8e-12,
		EnergyPerByte: 160e-12,
	}
}

// LayerCost is the footprint of one layer at a given precision.
type LayerCost struct {
	MACs float64
	// Bytes counts weight loads plus activation stores, after packing at
	// the configured bit width.
	Bytes float64
}

// Cost is an energy/latency pair.
type Cost struct {
	Energy  float64 // joules
	Latency float64 // seconds
}

// Add returns the sum of two costs (sequential composition).
func (c Cost) Add(o Cost) Cost {
	return Cost{Energy: c.Energy + o.Energy, Latency: c.Latency + o.Latency}
}

// NetworkLayerCosts derives the per-layer cost of a network at the given
// storage width in bits (32 for the fp32 baseline).
func NetworkLayerCosts(net *nn.Network, bits int) []LayerCost {
	if bits <= 0 {
		bits = 32
	}
	stats := net.LayerStats()
	costs := make([]LayerCost, len(stats))
	bytesPerElem := float64(bits) / 8
	for i, s := range stats {
		costs[i] = LayerCost{
			MACs:  float64(s.MACs),
			Bytes: float64(s.ParamElems+s.ActElems) * bytesPerElem,
		}
	}
	return costs
}

// InferenceCost evaluates one forward pass of a network on the GPU at the
// given precision.
func InferenceCost(g GPU, net *nn.Network, bits int) Cost {
	return costOf(g, NetworkLayerCosts(net, bits))
}

func costOf(g GPU, layers []LayerCost) Cost {
	var c Cost
	for _, l := range layers {
		compute := l.MACs / g.PeakMACs
		memory := l.Bytes / g.MemBW
		c.Latency += math.Max(compute, memory) + g.KernelOverhead
		c.Energy += l.MACs*g.EnergyPerMAC + l.Bytes*g.EnergyPerByte
	}
	c.Energy += g.IdlePower * c.Latency
	return c
}

// SystemConfig describes an MR system execution for costing.
type SystemConfig struct {
	// MemberCosts is the per-member inference cost, in RADE priority order.
	MemberCosts []Cost
	// PreprocessCost is charged once per activated member (Layer 1).
	PreprocessCost Cost
	// DecisionCost is charged once per input (Layer 3).
	DecisionCost Cost
	// GPUs is the number of members that can run concurrently (1 for the
	// sequential single-GPU worst case, 2 for the DRIVE-AGX-style setup).
	GPUs int
}

// SystemCost evaluates the mean per-input cost of the MR system given the
// per-sample activation counts recorded by a staged (RADE) evaluation; for
// a non-staged system pass activations all equal to the member count.
//
// Energy is the sum over activated members; latency schedules members
// greedily over the available GPUs (members are near-identical, so the
// schedule is ceil(activated/GPUs) rounds of the slowest member in each
// round).
func SystemCost(cfg SystemConfig, activations []int) (Cost, error) {
	n := len(cfg.MemberCosts)
	if n == 0 {
		return Cost{}, fmt.Errorf("perf: no member costs")
	}
	gpus := cfg.GPUs
	if gpus < 1 {
		gpus = 1
	}
	if len(activations) == 0 {
		return Cost{}, fmt.Errorf("perf: no activation counts")
	}
	var total Cost
	for _, a := range activations {
		if a < 1 {
			a = 1
		}
		if a > n {
			a = n
		}
		var c Cost
		// Energy: every activated member plus its preprocessing.
		for m := 0; m < a; m++ {
			c.Energy += cfg.MemberCosts[m].Energy + cfg.PreprocessCost.Energy
		}
		// Latency: rounds of up to `gpus` members; each round costs the
		// maximum member latency in the round.
		for start := 0; start < a; start += gpus {
			end := start + gpus
			if end > a {
				end = a
			}
			round := 0.0
			for m := start; m < end; m++ {
				round = math.Max(round, cfg.MemberCosts[m].Latency+cfg.PreprocessCost.Latency)
			}
			c.Latency += round
		}
		c = c.Add(cfg.DecisionCost)
		total = total.Add(c)
	}
	inv := 1 / float64(len(activations))
	return Cost{Energy: total.Energy * inv, Latency: total.Latency * inv}, nil
}

// FullActivations returns a slice of length samples filled with n, for
// costing non-staged systems.
func FullActivations(samples, n int) []int {
	a := make([]int, samples)
	for i := range a {
		a[i] = n
	}
	return a
}
