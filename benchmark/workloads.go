package main

import "fmt"

// benchmarkName is the served paper benchmark on every workload: the
// SynthCIFAR convnet with four members, RADE staging on.
const (
	benchmarkName = "convnet"
	members       = 4
)

// zipfCacheBytes is the L1 byte budget of the cached workloads. An entry is
// charged 240–290 bytes (decision + votes + fixed overhead), so this budget
// settles at ≈ 1024 live entries — a quarter of the 4096-image pool, so
// hits, inserts and evictions all run in steady state. Found once by
// reading CacheStats.Entries; it is a constant of the benchmark, never
// tuned per commit.
const zipfCacheBytes = 272 << 10

// workload is one traffic mix plus the server configuration it runs against.
type workload struct {
	name string
	why  string
	// imagesPerRequest is 1 or 32.
	imagesPerRequest int
	// backend is the polygraph.Options.Backend value ("" = f64).
	backend string
	// cacheBytes > 0 attaches the L1 prediction cache with that budget.
	cacheBytes int64
	// nodes > 1 serves from an in-process loopback cluster.
	nodes int
	// pool is the number of distinct images; zipf draws requests from it
	// with Zipf(s=1.1) instead of cycling through seeded permutations.
	pool int
	zipf bool
	// tailPct is the reported tail percentile: the highest one that keeps
	// at least ten samples beyond it at this workload's request rate.
	tailPct float64
}

// The cache-off workloads cycle through the whole test split (700 images,
// padded to a multiple of 32): with the cache off the server cannot tell a
// repeated image from a new one, and a bounded pool keeps the oracle cheap.
var workloads = []workload{
	{
		name: "single_f64", imagesPerRequest: 1, nodes: 1, pool: 704, tailPct: 99,
		why: "pgmr-serve defaults at B=1-2: HTTP/JSON, admission and the 5 ms batch window dominate; bypass for kernel changes",
	},
	{
		name: "batch32_f64", imagesPerRequest: 32, nodes: 1, pool: 704, tailPct: 95,
		why: "32 images per request, cache off: f64 member forwards and the staged batch engine dominate",
	},
	{
		name: "batch32_int8", imagesPerRequest: 32, backend: "int8", nodes: 1, pool: 704, tailPct: 95,
		why: "int8 kernels make forwards cheap, so 0.7 MB JSON bodies, preprocessing and GC become visible; bypass for f64 kernels",
	},
	{
		name: "zipf_cached_int8", imagesPerRequest: 1, backend: "int8", cacheBytes: zipfCacheBytes, nodes: 1, pool: 4096, zipf: true, tailPct: 99,
		why: "Zipf(1.1) over 4096 images, L1 cache of about 1024 entries: decode, SHA-256 key, probe, insert and eviction dominate",
	},
	{
		name: "cluster3_zipf_int8", imagesPerRequest: 1, backend: "int8", cacheBytes: zipfCacheBytes, nodes: 3, pool: 4096, zipf: true, tailPct: 99,
		why: "the same Zipf stream over 3 loopback nodes: ring lookup, frame codec, forward round trip and owner-side compute",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef is one named metric of the benchmark's schema, as
// BENCHMARK.json lists it. bound is set on end-to-end metrics only: the
// share of the parent's median by which the metric may get worse.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json
// order. failed_share and decision_mismatch_share gate the run (they are 0
// on a correct system, and a bound that is a share of 0 gates nothing), and
// fp_share is carried as its complement so that it is never 0.
var endToEnd = []metricDef{
	{"images_per_s", "img/s", true, 0.15},
	{"latency_mid_ms", "ms", false, 0.20},
	{"tp_share", "ratio", true, 0.02},
	{"fp_free_share", "ratio", true, 0.01},
	{"setup_s", "s", false, 0.25},
	{"rss_mean_mb", "MiB", false, 0.25},
}

// perLayer lists the metrics a --trace 1 run reports. Layers are this
// repository's packages; a metric of a layer the workload does not use
// (cache off, one node) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(unit string, higher bool, names ...string) {
		for _, n := range names {
			ms = append(ms, metricDef{name: n, unit: unit, higher: higher})
		}
	}
	lower := func(unit string, names ...string) { add(unit, false, names...) }
	higher := func(unit string, names ...string) { add(unit, true, names...) }

	lower("ms", "client.latency_p50_ms", "client.latency_tail_ms")
	lower("us", "client.self_us_per_request")
	lower("ms", "server.handler_self_ms", "server.queue_wait_ms")
	lower("us", "server.stub_request_us.b1", "server.stub_request_us.b32")
	higher("count", "server.batch_size_mean")
	higher("1/s", "server.batches_per_s")
	lower("ratio", "server.rejected_share")
	lower("ms", "polygraph.classify_batch_ms")
	lower("us", "polygraph.cache_lookup_us")
	lower("us", "cache.key_hash_us")
	lower("ns", "cache.probe_hit_ns", "cache.probe_miss_ns", "cache.insert_ns")
	higher("ratio", "cache.hit_ratio", "cache.coalesced_share")
	lower("1/s", "cache.evictions_per_s")
	lower("ns", "persist.add_ns")
	higher("MB/s", "persist.flush_mb_per_s")
	lower("us", "preprocess.apply_us.m0", "preprocess.apply_us.m1", "preprocess.apply_us.m2", "preprocess.apply_us.m3")
	lower("count", "core.activated_mean")
	lower("ratio", "core.escalated_share")
	lower("us", "core.classify_us_per_image.b1", "core.classify_us_per_image.b32")
	lower("ratio", "core.engine_self_share.b32")
	lower("ns", "core.decide_ns", "core.encode_decision_ns", "core.decode_decision_ns")
	for _, be := range backendNames {
		lower("us", "nn.forward_us_per_image."+be+".b1", "nn.forward_us_per_image."+be+".b32")
	}
	for _, be := range backendNames {
		lower("B", "nn.alloc_bytes_per_image."+be+".b32")
	}
	for _, be := range backendNames {
		lower("ratio", "nn.verified_overhead_share."+be+".b32")
	}
	lower("ms", "nn.compile_ms.f32", "nn.compile_ms.int8")
	for _, be := range backendNames {
		lower("us", "nn.resnet20.forward_us_per_image."+be+".b32")
	}
	for _, s := range convShapes {
		for _, prec := range []string{"f64", "f32"} {
			for _, algo := range []string{"gemm", "implicit", "winograd"} {
				higher("GFLOP/s", "tensor."+algo+"_"+prec+"_gflops."+s.name)
			}
		}
		higher("GOP/s", "tensor.gemm_u8_gops."+s.name, "tensor.implicit_u8_gops."+s.name, "tensor.direct_u8_gops."+s.name)
	}
	higher("GB/s", "tensor.im2col_gb_per_s", "tensor.quantize_u8_gb_per_s")
	higher("GFLOP/s", "tensor.peak_f64_gflops", "tensor.peak_f32_gflops")
	higher("GOP/s", "tensor.peak_i8_gops")
	higher("ratio", "tensor.best_of_peak.f64", "tensor.best_of_peak.f32", "tensor.best_of_peak.int8")
	lower("us", "cluster.forward_rtt_us_p50")
	lower("ratio", "cluster.forwarded_share", "cluster.fallback_share", "cluster.compute_once_ratio")
	lower("ns", "cluster.frame_codec_ns", "cluster.ring_owner_ns")
	higher("ratio", "cluster.vs_single_node_ratio")
	lower("ns", "policy.plan_batch_ns", "policy.next_stage_ns")
	lower("s", "runtime.cpu_s_per_1k_images")
	lower("B", "runtime.alloc_bytes_per_image")
	lower("ratio", "runtime.gc_cpu_share")
	lower("count", "runtime.goroutines_end")
	lower("MiB", "runtime.rss_peak_mb")
	higher("ratio", "runtime.scaling_pmax_over_p1")
	for _, part := range budgetParts {
		// Member forwards are the work a request exists for; every other
		// share is overhead around them.
		add("ratio", part == "forward", "budget."+part+"_share")
	}
	lower("ratio", "trace.overhead_share")
	lower("ratio", "quality.fp_share", "quality.failed_share", "quality.decision_mismatch_share")
	return ms
}

var (
	backendNames = []string{"f64", "f32", "int8"}
	// budgetParts are the shares of one request's client latency, in the
	// order a request meets them. They sum to 1.
	budgetParts = []string{
		"transport", "server_self", "queue_wait", "glue", "cache",
		"preprocess", "forward", "engine_self", "cluster_forward", "unattributed",
	}
)
