package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// The traced run splits --seconds into an untraced reference phase, the
// traced phase and a single-processor phase for the scaling point.
const (
	refShare     = 0.25
	tracedShare  = 0.45
	scalingShare = 0.20
	// coldRequests is how many requests the compute-once check sends into
	// empty caches: their distinct images fit every node's cache, so
	// nothing is evicted and each image must be computed exactly once.
	coldRequests = 600
)

// usage is a snapshot of process-wide resource counters.
type usage struct {
	cpu, gcCPU float64
	alloc      uint64
}

// readUsage forces a collection first: the runtime publishes its CPU
// classes once per GC cycle.
func readUsage() usage {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	u := usage{cpu: cpuSeconds(), alloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	return u
}

// budgetInput is one request's mean time in seconds, cut at the seams the
// harness can see from outside, plus the replayed compute below the last
// seam. All means are over the traced phase.
type budgetInput struct {
	client  float64 // client.request span
	handler float64 // server.handler span (client − handler is transport)
	cache   float64 // cache_lookup + cache_stats spans per request
	queue   float64 // admission-queue wait, × share of requests that reach the batcher
	backend float64 // polygraph.classify_batch span as the request waits on it, same scaling
	forward float64 // cluster forward round trips per request (inside backend)
	// Replayed at the observed batch size, per request (inside backend):
	glue, preprocess, nnForward, engineSelf float64
}

// budgetShares turns the cut into shares of the client latency. They sum
// to 1 by construction: every seam's children are subtracted from it, and
// what the replay cannot explain of the backend wait is unattributed.
func budgetShares(in budgetInput) map[string]float64 {
	if in.client <= 0 {
		return nil
	}
	compute := in.glue + in.preprocess + in.nnForward + in.engineSelf
	parts := map[string]float64{
		"transport":       in.client - in.handler,
		"server_self":     in.handler - in.cache - in.queue - in.backend,
		"queue_wait":      in.queue,
		"glue":            in.glue,
		"cache":           in.cache,
		"preprocess":      in.preprocess,
		"forward":         in.nnForward,
		"engine_self":     in.engineSelf,
		"cluster_forward": in.forward,
		"unattributed":    in.backend - in.forward - compute,
	}
	out := make(map[string]float64, len(parts))
	for name, v := range parts {
		out["budget."+name+"_share"] = v / in.client
	}
	return out
}

// spanStats aggregates the traced phase's spans.
type spanStats struct {
	client, handler, transport float64 // means per joined request
	joined                     int
	cachePerRequest            float64
	lookupMean                 float64
	batchMean                  float64 // mean classify_batch span
	batchWait                  float64 // image-weighted mean: what a random image's request waits
	batchSeen                  float64 // image-weighted mean batch size
}

func aggregate(spans []span) spanStats {
	handlers := map[uint64]span{}
	var st spanStats
	var cacheSum, lookupSum, batchSum, weighted, images, sizeWeighted float64
	var lookups, batches int
	for _, s := range spans {
		switch s.Name {
		case "server.handler":
			handlers[s.Req] = s
		case "polygraph.cache_lookup":
			cacheSum += s.dur()
			lookupSum += s.dur()
			lookups++
		case "polygraph.cache_stats":
			cacheSum += s.dur()
		case "polygraph.classify_batch":
			batchSum += s.dur()
			batches++
			weighted += s.dur() * float64(s.N)
			sizeWeighted += float64(s.N) * float64(s.N)
			images += float64(s.N)
		}
	}
	for _, s := range spans {
		if s.Name != "client.request" {
			continue
		}
		h, ok := handlers[s.Req]
		if !ok {
			continue
		}
		st.joined++
		st.client += s.dur()
		st.handler += h.dur()
		st.transport += selfSeconds(s, []span{h})
	}
	if st.joined > 0 {
		n := float64(st.joined)
		st.client, st.handler, st.transport = st.client/n, st.handler/n, st.transport/n
		st.cachePerRequest = cacheSum / n
	}
	if lookups > 0 {
		st.lookupMean = lookupSum / float64(lookups)
	}
	if batches > 0 {
		st.batchMean = batchSum / float64(batches)
		st.batchWait = weighted / images
		st.batchSeen = sizeWeighted / images
	}
	return st
}

// runTraced is the --trace 1 run: the same load with the harness's seams in
// place, then the replay probes. Per-layer metrics come from here; nothing
// it measures is gated except correctness.
func runTraced(c runConfig) (*result, error) {
	c.header()
	m := map[string]float64{}
	tr := newTracer()
	d, _, err := measureSetup(c.w, tr, 1)
	if err != nil {
		return nil, err
	}
	t, oracle, err := makeTraffic(c)
	if err != nil {
		d.shutdown()
		return nil, err
	}
	g := newGenerator(t, d, tr)

	// Compute-once check on empty caches, then the rest of the warm-up.
	var cold *phase
	if c.w.cacheBytes > 0 {
		cold = g.runRequests(coldRequests)
		sent := map[int32]bool{}
		for _, b := range t.seq[:coldRequests] {
			sent[b] = true
		}
		m["cluster.compute_once_ratio"] = float64(d.counters().inserts()) / float64(len(sent))
	}
	warm := g.run(c.warmup())

	u0 := readUsage()
	ref := g.run(c.span(refShare))
	c1, u1 := d.counters(), readUsage()
	tr.on.Store(true)
	traced := g.run(c.span(tracedShare))
	spans, forwards := tr.take()
	c2 := d.counters()
	prev := runtime.GOMAXPROCS(1)
	single := g.run(c.span(scalingShare))
	runtime.GOMAXPROCS(prev)
	g.close()
	if err := d.shutdown(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	time.Sleep(50 * time.Millisecond) // connection goroutines unwind after Shutdown returns
	m["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
	m["runtime.rss_peak_mb"] = rssPeakMiB()
	if c.traceOut != "" {
		if err := writeSpans(c.traceOut, spans); err != nil {
			return nil, err
		}
	}

	phases := []*phase{warm, ref, traced, single}
	if cold != nil {
		phases = append(phases, cold)
	}
	res := &result{}
	gate(c, res, phases...)

	// Client side.
	lat := append(ref.sortedLatencyMS(), traced.sortedLatencyMS()...)
	sort.Float64s(lat)
	tail := supportedTail(len(lat), c.w.tailPct)
	c.logf("client.latency_tail_ms is p%g of %d samples (wanted p%g)", tail, len(lat), c.w.tailPct)
	m["client.latency_p50_ms"] = percentile(lat, 50)
	m["client.latency_tail_ms"] = percentile(lat, tail)
	m["client.self_us_per_request"] = traced.selfSeconds / float64(traced.requests) * 1e6
	m["core.activated_mean"] = float64(traced.activatedSum) / float64(max(traced.answered, 1))
	m["core.escalated_share"] = share(traced.escalated, traced.answered)
	_, fp := t.quality()
	m["quality.fp_share"] = fp
	m["quality.failed_share"] = share(res.Failed, res.Attempted)
	mismatched, answered := 0, 0
	for _, p := range phases {
		mismatched += p.mismatched
		answered += p.answered
	}
	m["quality.decision_mismatch_share"] = share(mismatched, answered)

	// Server, cache and cluster counters over the traced phase.
	dt := traced.span.Seconds()
	batches := float64(c2.batches - c1.batches)
	batched := float64(c2.batchedImages - c1.batchedImages)
	requests := float64(c2.requests - c1.requests)
	queueMean := 0.0
	if n := c2.queueWaitN - c1.queueWaitN; n > 0 {
		queueMean = (c2.queueWaitSum - c1.queueWaitSum) / float64(n)
	}
	m["server.queue_wait_ms"] = queueMean * 1e3
	m["server.batches_per_s"] = batches / dt
	if batches > 0 {
		m["server.batch_size_mean"] = batched / batches
	}
	m["server.rejected_share"] = float64(c2.rejected-c1.rejected) / math.Max(requests, 1)
	if probes := float64(c2.probeHits - c1.probeHits + c2.probeMisses - c1.probeMisses); c.w.cacheBytes > 0 && probes > 0 {
		m["cache.hit_ratio"] = float64(c2.probeHits-c1.probeHits) / probes
		m["cache.coalesced_share"] = float64(c2.coalesced-c1.coalesced) / probes
		m["cache.evictions_per_s"] = float64(c2.evictions-c1.evictions) / dt
	}
	localShare := 1.0
	if routed := float64(c2.owned - c1.owned + c2.forwarded - c1.forwarded + c2.fallback - c1.fallback); routed > 0 {
		// Of all images answered, not of those routed: an image its entry
		// node owns and has cached is answered before routing.
		m["cluster.forwarded_share"] = float64(c2.forwarded-c1.forwarded) / (requests * float64(c.w.imagesPerRequest))
		localShare = float64(c2.owned-c1.owned) / routed
		sort.Float64s(forwards)
		m["cluster.forward_rtt_us_p50"] = percentile(forwards, 50) * 1e6
	}
	end := d.counters()
	if routed := end.owned + end.forwarded + end.fallback; routed > 0 {
		m["cluster.fallback_share"] = float64(end.fallback) / float64(routed)
	}
	gateCluster(c, res, end)

	// Process-wide cost over the untraced reference phase (server and
	// generator share the process).
	refImages := sum(ref.images)
	m["runtime.cpu_s_per_1k_images"] = (u1.cpu - u0.cpu) / refImages * 1e3
	m["runtime.alloc_bytes_per_image"] = float64(u1.alloc-u0.alloc) / refImages
	if cpu := u1.cpu - u0.cpu; cpu > 0 {
		m["runtime.gc_cpu_share"] = (u1.gcCPU - u0.gcCPU) / cpu
	}
	if s := single.throughput(); s > 0 {
		m["runtime.scaling_pmax_over_p1"] = ref.throughput() / s
	}
	m["trace.overhead_share"] = 1 - traced.throughput()/ref.throughput()

	// Seams.
	st := aggregate(spans)
	c.logf("trace: %d spans, %d requests joined client to handler, image-weighted batch size %.1f", len(spans), st.joined, st.batchSeen)
	m["polygraph.classify_batch_ms"] = st.batchMean * 1e3
	m["polygraph.cache_lookup_us"] = st.lookupMean * 1e6
	reach := 0.0 // share of requests that reach the batcher
	if requests > 0 {
		reach = math.Min(1, batched/(requests*float64(c.w.imagesPerRequest)))
	}
	in := budgetInput{
		client: st.client, handler: st.handler, cache: st.cachePerRequest,
		queue: queueMean * reach, backend: st.batchWait * reach,
	}
	if st.joined > 0 {
		in.forward = sum(forwards) / float64(st.joined)
	}
	m["server.handler_self_ms"] = (in.handler - in.cache - in.queue - in.backend) * 1e3

	if c.w.nodes > 1 && !c.smoke {
		ratio, err := singleNodeRatio(c, t, ref.throughput())
		if err != nil {
			return nil, err
		}
		m["cluster.vs_single_node_ratio"] = ratio
	}
	if !c.smoke {
		observed := int(math.Round(st.batchSeen))
		cost, err := replayProbes(c, t, oracle, observed, m)
		if err != nil {
			c.logf("INCORRECT: %v", err)
			res.Correct = false
		} else {
			c.logf("replay at batch %d: %.0f us/image through the root package, %.0f through core; split glue %.3f preprocess %.3f forward %.3f engine %.3f",
				observed, cost.perImage*1e6, cost.classify*1e6, cost.glue, cost.preprocess, cost.forward, cost.engineSelf)
			// A request waits for its whole batch: the images of it that
			// this node computes, each at the replayed per-image cost.
			compute := cost.perImage * reach * st.batchSeen * localShare
			in.glue = cost.glue * compute
			in.preprocess = cost.preprocess * compute
			in.nnForward = cost.forward * compute
			in.engineSelf = cost.engineSelf * compute
		}
	}
	for k, v := range budgetShares(in) {
		m[k] = v
	}
	res.Metrics = printMetrics(c.log, c.w.name, perLayer, m)
	return res, nil
}

// singleNodeRatio serves the cluster workload's identical stream from one
// node and returns cluster throughput over single-node throughput, both
// untraced phases of the same length in this process.
func singleNodeRatio(c runConfig, t *traffic, clusterRate float64) (float64, error) {
	w := c.w
	w.nodes = 1
	d, err := bringUp(w, nil)
	if err != nil {
		return 0, err
	}
	g := newGenerator(t, d, nil)
	g.run(c.warmup())
	p := g.run(c.span(refShare))
	g.close()
	if err := d.shutdown(); err != nil {
		return 0, err
	}
	if p.failed > 0 || p.mismatched > 0 {
		return 0, fmt.Errorf("single-node comparison: %d failed requests, %d mismatches", p.failed, p.mismatched)
	}
	c.logf("single node on the same stream: %.1f img/s (cluster %.1f img/s)", p.throughput(), clusterRate)
	return clusterRate / p.throughput(), nil
}
