package perf

import "math"

// Test fixtures: the second and third device of the cost-model tests and
// a regime diagnostic. The experiments cost on TitanX only.

// DriveAGX returns constants in the regime of the NVIDIA DRIVE AGX platform
// the paper's §IV-C two-GPU scenario references: two Tensor-Core-class GPUs
// with an automotive power envelope. Per-GPU throughput is below the
// TITAN X while the pair allows two concurrent member activations
// (SystemConfig.GPUs = 2).
func DriveAGX() GPU {
	return GPU{
		Name:          "DRIVE AGX (per GPU)",
		PeakMACs:      2.5e12,
		MemBW:         256e9,
		EnergyPerMAC:  6e-12,
		EnergyPerByte: 120e-12,
	}
}

// EmbeddedCPU returns constants for a CPU-only edge deployment — a useful
// worst case for latency-budget reasoning with no accelerator available,
// and the one device whose kernel-launch overhead and idle power are
// nonzero, so the tests reach those terms of the cost model.
func EmbeddedCPU() GPU {
	return GPU{
		Name:           "embedded CPU",
		PeakMACs:       2e10,
		MemBW:          12e9,
		EnergyPerMAC:   60e-12,
		EnergyPerByte:  300e-12,
		KernelOverhead: 1e-6,
		IdlePower:      5,
	}
}

// MemoryBoundFraction reports the fraction of layer latency that is
// memory-bound, the test's check on the model regime.
func MemoryBoundFraction(g GPU, layers []LayerCost) float64 {
	var mem, total float64
	for _, l := range layers {
		compute := l.MACs / g.PeakMACs
		memory := l.Bytes / g.MemBW
		t := math.Max(compute, memory)
		total += t
		if memory >= compute {
			mem += t
		}
	}
	if total == 0 {
		return 0
	}
	return mem / total
}
