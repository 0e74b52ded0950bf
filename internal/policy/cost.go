package policy

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file holds the controller's cost model: a lock-free table of EWMA
// per-(image·member) stage latencies, keyed by stage index × backend ×
// batch-size bucket. Stages are observed by the core engine after every
// executed chunk (see Controller.ObserveStage); readers take atomic
// snapshots, so the serve path never blocks on the model and the model
// never blocks the serve path.

const (
	// maxStages caps the stage dimension of the cost table; deeper stages
	// share the last cell (committees are small — a 9-member system at
	// StageBatch 1 is the first to fold).
	maxStages = 8
	// numBackends mirrors core's backend enum (f64, f32, int8).
	numBackends = 3
	// numBuckets is the batch-size dimension: bucket k covers batch sizes
	// (2^(k-1), 2^k], so per-image costs that change with batch shape
	// (kernel fusion gets cheaper per image as B grows) are modeled without
	// an unbounded key space.
	numBuckets = 8
)

// stageIdx clamps a stage index into the table.
func stageIdx(stage int) int {
	if stage < 0 {
		return 0
	}
	if stage >= maxStages {
		return maxStages - 1
	}
	return stage
}

// sizeBucket maps a batch size to its power-of-two bucket: 1→0, 2→1,
// 3-4→2, 5-8→3, … clamped to numBuckets-1 (≥65 images share one bucket).
func sizeBucket(b int) int {
	if b <= 1 {
		return 0
	}
	k := bits.Len(uint(b - 1))
	if k >= numBuckets {
		return numBuckets - 1
	}
	return k
}

// ewma is an atomically updated exponentially weighted moving average.
// The zero value is "no observations yet". Values are stored as
// math.Float64bits; observations are clamped to a small positive floor so
// the zero bit pattern uniquely means empty.
type ewma struct {
	bits atomic.Uint64
}

// observe folds one sample in with weight alpha (first sample seeds the
// average). Lock-free: concurrent observers CAS-retry.
func (e *ewma) observe(v, alpha float64) {
	if !(v > 1e-9) { // clamp non-positive and NaN samples
		v = 1e-9
	}
	for {
		old := e.bits.Load()
		nv := v
		if old != 0 {
			nv = alpha*v + (1-alpha)*math.Float64frombits(old)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// load returns the current average and whether any sample has been folded.
func (e *ewma) load() (float64, bool) {
	b := e.bits.Load()
	if b == 0 {
		return 0, false
	}
	return math.Float64frombits(b), true
}

// costTable is the (stage × backend × bucket) EWMA grid, plus a bucket-
// aggregated (stage × backend) view used for gauge export and as the first
// fallback when a bucket has no samples yet.
type costTable struct {
	cells [maxStages * numBackends * numBuckets]ewma
	agg   [maxStages * numBackends]ewma
}

// priorRatio approximates a backend's per-image cost relative to f64 —
// used only before the backend has been measured at a stage. The priors
// are the benchmark's nn.forward_us_per_image.*.b32 probes, averaged over
// two traced runs (`bash benchmark/run.sh --workload batch32_int8
// --trace 1`, seeds 7 and 8, 2-vCPU AVX2 box): f64 75.0 µs, f32 53.1,
// int8 50.0 — f32 ≈ 1.4× and int8 ≈ 1.5× cheaper than f64.
var priorRatio = [numBackends]float64{1, 1.0 / 1.4, 1.0 / 1.5}

// observe folds one per-(image·member) latency sample (microseconds) in.
func (t *costTable) observe(stage, backend, bucket int, micros, alpha float64) {
	s, k := stageIdx(stage), bucket
	if backend < 0 || backend >= numBackends {
		return
	}
	if k < 0 {
		k = 0
	}
	if k >= numBuckets {
		k = numBuckets - 1
	}
	t.cells[(s*numBackends+backend)*numBuckets+k].observe(micros, alpha)
	t.agg[s*numBackends+backend].observe(micros, alpha)
}

// lookup estimates the per-(image·member) cost for a (stage, backend,
// bucket) key. Fallback chain: exact cell → bucket-aggregated same
// (stage, backend) → another backend at the same stage scaled by the
// prior ratios. Returns ok=false only when the whole stage is unmeasured.
func (t *costTable) lookup(stage, backend, bucket int) (float64, bool) {
	s := stageIdx(stage)
	if backend < 0 || backend >= numBackends {
		return 0, false
	}
	if bucket < 0 {
		bucket = 0
	}
	if bucket >= numBuckets {
		bucket = numBuckets - 1
	}
	if v, ok := t.cells[(s*numBackends+backend)*numBuckets+bucket].load(); ok {
		return v, true
	}
	if v, ok := t.agg[s*numBackends+backend].load(); ok {
		return v, true
	}
	for b := 0; b < numBackends; b++ {
		if v, ok := t.agg[s*numBackends+b].load(); ok {
			return v * priorRatio[backend] / priorRatio[b], true
		}
	}
	return 0, false
}

// aggregated returns the bucket-aggregated EWMA for (stage, backend)
// without fallbacks — the value the per-stage telemetry gauges export.
func (t *costTable) aggregated(stage, backend int) (float64, bool) {
	if backend < 0 || backend >= numBackends || stage < 0 || stage >= maxStages {
		return 0, false
	}
	return t.agg[stage*numBackends+backend].load()
}
