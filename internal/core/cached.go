package core

import (
	"context"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cache/persist"
	"repro/internal/tensor"
)

// This file wires the content-addressed prediction cache (internal/cache)
// into the classification engines. When System.Cache is set, Classify and
// ClassifyBatch probe the cache before running any member network, coalesce
// concurrent identical inputs onto one ensemble pass (singleflight), and
// compute duplicates within a single ClassifyBatch call only once. Cached
// decisions are bit-identical to uncached ones: the cache key binds the
// quantized image content to a fingerprint of every decision-relevant
// configuration field, so a hit can only ever return what the very same
// system would have computed.

// PredictionCache is the Decision-typed wrapper around the tiered store —
// the in-memory sharded LRU plus an optional persistent L2 tier — and the
// inflight-coalescing group. Safe for concurrent use and for sharing
// between a System, the HTTP server's pre-admission probe, and stream
// processors.
type PredictionCache struct {
	tier      *cache.Tiered[Decision]
	l2        *persist.Store[Decision] // nil when memory-only
	group     *cache.Group[Decision]
	fp        cache.Fingerprint
	coalesced atomic.Uint64
}

// CacheStats aggregates store counters with the engine-level coalescing
// count (inputs served by joining another caller's in-flight ensemble pass
// or by intra-batch dedup). The L2 fields are zero when no disk tier is
// attached. Hits counts serves from either tier; L2Hits is the subset that
// missed memory and was promoted from disk.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Expired   uint64
	Entries   int
	Bytes     int64

	// L2 tier.
	L2Hits        uint64 // disk hits promoted into memory
	L2Entries     int    // live indexed records
	L2Bytes       int64  // live record bytes on disk
	L2DiskBytes   int64  // total segment bytes (live + dead, pre-compaction)
	L2Flushed     uint64 // records made durable by the write-behind flusher
	L2Dropped     uint64 // records lost to backpressure or write errors
	L2Backlog     int64  // records queued, not yet flushed
	L2Recovered   uint64 // records re-indexed by the last recovery scan
	L2Truncated   uint64 // torn tails cut by the last recovery scan
	L2Corrupt     uint64 // CRC-rejected records (recovery + reads)
	L2Stale       uint64 // fingerprint-mismatch records rejected at recovery
	L2Evicted     uint64 // live records dropped by size-budgeted compaction
	L2Compactions uint64 // segment rewrites
}

// decisionCodec serializes Decisions for the persistent tier.
var decisionCodec = persist.Codec[Decision]{
	Encode: EncodeDecision,
	Decode: DecodeDecision,
}

// decisionBytes approximates a Decision's heap footprint for the byte
// budget: the struct itself plus the votes histogram buckets.
func decisionBytes(d Decision) int64 {
	return 64 + 48*int64(len(d.Votes))
}

// NewPredictionCache creates a memory-only prediction cache bound to the
// given system fingerprint. Use System.ConfigFingerprint (or EnableCache)
// so the fingerprint actually matches the serving configuration.
func NewPredictionCache(cfg cache.Config, fp cache.Fingerprint) *PredictionCache {
	return &PredictionCache{
		tier:  cache.NewTiered[Decision](cache.New[Decision](cfg, decisionBytes), nil),
		group: cache.NewGroup[Decision](),
		fp:    fp,
	}
}

// NewTieredPredictionCache creates a prediction cache with a persistent L2
// tier under the in-memory LRU. Decisions overflowing (or restarting past)
// memory are served from disk and promoted back; the disk tier is
// write-behind and lossy, so it can only ever cost a recomputation, never
// block the serve path. The store must be Closed to flush the tail.
func NewTieredPredictionCache(cfg cache.Config, dcfg persist.Config, fp cache.Fingerprint) (*PredictionCache, error) {
	l2, err := persist.Open(dcfg, fp, decisionCodec)
	if err != nil {
		return nil, err
	}
	return &PredictionCache{
		tier:  cache.NewTiered[Decision](cache.New[Decision](cfg, decisionBytes), l2),
		l2:    l2,
		group: cache.NewGroup[Decision](),
		fp:    fp,
	}, nil
}

// get and put are the store seam every cached path goes through: the tiered
// read (L1, then L2 with promotion) and the tiered write (L1 now, L2
// write-behind). Values cross this seam under the cache's ownership rules —
// cloned in, cloned out by the callers.
func (p *PredictionCache) get(k cache.Key) (Decision, bool) { return p.tier.Get(k) }
func (p *PredictionCache) put(k cache.Key, d Decision)      { p.tier.Add(k, d) }

// FlushL2 blocks until every queued write-behind entry has been flushed to
// the disk tier (or dropped). No-op without an L2 tier.
func (p *PredictionCache) FlushL2() error {
	if p.l2 == nil {
		return nil
	}
	return p.l2.Flush()
}

// Close flushes and closes the disk tier. The cache remains usable as a
// memory-only cache afterwards (adds to the closed tier become counted
// drops). No-op without an L2 tier.
func (p *PredictionCache) Close() error {
	if p.l2 == nil {
		return nil
	}
	return p.l2.Close()
}

// Fingerprint returns the system fingerprint the cache is bound to.
func (p *PredictionCache) Fingerprint() cache.Fingerprint { return p.fp }

// KeyFor computes the content address of one input under the cache's
// fingerprint.
func (p *PredictionCache) KeyFor(x *tensor.T) cache.Key {
	return cache.ImageKey(p.fp, x.Shape, x.Data)
}

// Lookup probes the cache without computing anything. The returned decision
// owns its Votes map (cloned), so callers may mutate it freely.
func (p *PredictionCache) Lookup(x *tensor.T) (Decision, bool) {
	d, ok := p.get(p.KeyFor(x))
	if !ok {
		return Decision{}, false
	}
	return cloneDecision(d), true
}

// Insert stores a decision for an input (clone-in: the caller keeps
// ownership of d).
func (p *PredictionCache) Insert(x *tensor.T, d Decision) {
	p.put(p.KeyFor(x), cloneDecision(d))
}

// Stats snapshots the cache counters across both tiers.
func (p *PredictionCache) Stats() CacheStats {
	l1 := p.tier.L1().Stats()
	ts := p.tier.Stats()
	st := CacheStats{
		Hits:      ts.L1Hits + ts.L2Hits,
		Misses:    ts.Misses,
		Coalesced: p.coalesced.Load(),
		Evictions: l1.Evictions,
		Expired:   l1.Expired,
		Entries:   l1.Entries,
		Bytes:     l1.Bytes,
	}
	if p.l2 != nil {
		l2 := p.l2.Stats()
		st.L2Hits = ts.L2Hits
		st.L2Entries = l2.Entries
		st.L2Bytes = l2.LiveBytes
		st.L2DiskBytes = l2.DiskBytes
		st.L2Flushed = l2.Flushed
		st.L2Dropped = l2.Dropped
		st.L2Backlog = int64(l2.Backlog)
		st.L2Recovered = l2.Recovered
		st.L2Truncated = l2.Truncated
		st.L2Corrupt = l2.Corrupt
		st.L2Stale = l2.Stale
		st.L2Evicted = l2.Evicted
		st.L2Compactions = l2.Compactions
	}
	return st
}

// ConfigFingerprint digests every configuration field that can change a
// Decision — thresholds, staging shape, the member set (variant keys) in
// priority order, the per-member backend schedule (reduced-precision
// kernels shift softmax rows), and the attached stage-policy descriptor —
// plus a caller salt for configuration those fields cannot see (served
// systems pass the literal "bits=0"; see cache.SystemConfig.Salt).
// Workers is deliberately excluded: it changes wall-clock time, never
// decisions. The policy descriptor is belt-and-braces: degraded
// batches are never stored anyway (see classifyBatchCachedWith), but
// keying on the descriptor keeps persistent tiers written under different
// policies disjoint by construction.
func (s *System) ConfigFingerprint(salt string) cache.Fingerprint {
	names := make([]string, len(s.Members))
	for i, m := range s.Members {
		names[i] = m.Name
	}
	batch := s.Batch
	if batch < 1 {
		batch = 1 // the engines normalize Batch<1 to 1; key identically
	}
	policy := ""
	if s.Policy != nil {
		policy = s.Policy.Descriptor()
	}
	return cache.SystemFingerprint(cache.SystemConfig{
		Conf:     s.Th.Conf,
		Freq:     s.Th.Freq,
		Staged:   s.Staged,
		Batch:    batch,
		Members:  names,
		Backends: s.Backends(),
		Policy:   policy,
		Salt:     salt,
	})
}

// EnableCache attaches a prediction cache fingerprinted against the current
// configuration. Call it after the system is fully configured: mutating
// Th, Staged, Batch or Members afterwards would serve stale predictions
// (re-enable to re-fingerprint).
func (s *System) EnableCache(cfg cache.Config, salt string) *PredictionCache {
	s.Cache = NewPredictionCache(cfg, s.ConfigFingerprint(salt))
	return s.Cache
}

// EnableTieredCache attaches a prediction cache with a persistent L2 tier,
// fingerprinted against the current configuration like EnableCache. Entries
// written by an earlier process under the same configuration are recovered
// from dcfg.Dir and served without recomputation; entries from a different
// configuration are rejected record-by-record at recovery. Close the
// returned cache (or call s.Cache.Close) before process exit to flush the
// write-behind tail.
func (s *System) EnableTieredCache(cfg cache.Config, dcfg persist.Config, salt string) (*PredictionCache, error) {
	pc, err := NewTieredPredictionCache(cfg, dcfg, s.ConfigFingerprint(salt))
	if err != nil {
		return nil, err
	}
	s.Cache = pc
	return pc, nil
}

// cloneDecision gives the decision its own Votes map so cached values, the
// singleflight publication, and caller-visible results never alias.
func cloneDecision(d Decision) Decision {
	if d.Votes != nil {
		v := make(map[int]int, len(d.Votes))
		for label, n := range d.Votes {
			v[label] = n
		}
		d.Votes = v
	}
	return d
}

func isCtxErr(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// runOneFn computes one image uncached; runBatchFn computes a batch
// uncached, additionally reporting whether the batch is clean — computed on
// the static schedule and therefore storeable. A policy-degraded batch
// (clean == false) is served and published to coalesced followers but never
// inserted, so the cache only ever holds reference decisions. The cached
// paths are written against these seams — mirroring the member-inference
// seam of the engine — so the equivalence property tests can drive them with
// exact synthetic softmax tables.
type runOneFn func(context.Context, *tensor.T) (Decision, error)
type runBatchFn func(context.Context, []*tensor.T) ([]Decision, bool, error)

// classifyCached is the single-image cached path: the batched one at a
// batch of one. Its batch runner is the static engine with no policy, so
// single-image Classify stays on the reference schedule and its result is
// always stored.
func (s *System) classifyCached(ctx context.Context, x *tensor.T) (Decision, error) {
	static := func(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
		return s.classifyBatchStaged(ctx, xs, nil, s.batchStageArenaInfer())
	}
	ds, err := s.classifyBatchCachedWith(ctx, []*tensor.T{x}, static, s.classifyUncached)
	if err != nil {
		return Decision{}, err
	}
	return ds[0], nil
}

// classifyBatchCached is the batched cached path. Within one call, each
// distinct key is resolved exactly once — by store hit, by joining another
// caller's flight, or by one fused uncached pass over the unique misses —
// and duplicates are fanned back out, so a duplicate-heavy batch pays for
// its unique images only. Decisions are index-aligned and identical to the
// uncached engine's.
func (s *System) classifyBatchCached(ctx context.Context, xs []*tensor.T) ([]Decision, error) {
	return s.classifyBatchCachedWith(ctx, xs, s.classifyBatchUncachedTagged, s.classifyUncached)
}

func (s *System) classifyBatchCachedWith(ctx context.Context, xs []*tensor.T, runBatch runBatchFn, runOne runOneFn) ([]Decision, error) {
	pc := s.Cache
	out := make([]Decision, len(xs))
	keys := make([]cache.Key, len(xs))
	resolved := make([]bool, len(xs))
	first := make(map[cache.Key]int, len(xs))

	type lead struct {
		idx    int
		flight *cache.Flight[Decision]
	}
	var leads, follows []lead

	for i, x := range xs {
		k := pc.KeyFor(x)
		keys[i] = k
		if _, dup := first[k]; dup {
			pc.coalesced.Add(1) // intra-batch duplicate: fanned out below
			continue
		}
		first[k] = i
		if d, ok := pc.get(k); ok {
			out[i] = cloneDecision(d)
			resolved[i] = true
			continue
		}
		f, leader := pc.group.Join(k)
		if leader {
			leads = append(leads, lead{i, f})
		} else {
			pc.coalesced.Add(1)
			follows = append(follows, lead{i, f})
		}
	}

	// One fused uncached pass over the unique misses this call leads.
	if len(leads) > 0 {
		cxs := make([]*tensor.T, len(leads))
		for j, l := range leads {
			cxs[j] = xs[l.idx]
		}
		ds, clean, err := runBatch(ctx, cxs)
		if err != nil {
			for _, l := range leads {
				pc.group.Finish(keys[l.idx], l.flight, Decision{}, err)
			}
			return nil, err
		}
		for j, l := range leads {
			d := ds[j]
			if clean {
				// Only reference decisions enter the store: a policy-degraded
				// batch (shallower stages, overridden backends) is served to
				// this call and its coalesced followers but never cached, so
				// a later unloaded request can never be answered with a
				// load-shedding-era decision.
				pc.put(keys[l.idx], cloneDecision(d))
			}
			pc.group.Finish(keys[l.idx], l.flight, cloneDecision(d), nil)
			out[l.idx] = d
			resolved[l.idx] = true
		}
	}

	// Collect results computed by other callers' flights.
	for _, fw := range follows {
		d, err := s.awaitFlight(ctx, keys[fw.idx], xs[fw.idx], fw.flight, runOne)
		if err != nil {
			return nil, err
		}
		out[fw.idx] = d
		resolved[fw.idx] = true
	}

	// Fan intra-batch duplicates out from their first occurrence.
	for i := range xs {
		if !resolved[i] {
			out[i] = cloneDecision(out[first[keys[i]]])
		}
	}
	return out, nil
}

// awaitFlight waits on another caller's flight for key k. When that leader
// dies of its own cancellation while our context is live, we re-probe and,
// if needed, compute the single image ourselves rather than inherit a
// cancellation our caller never issued.
func (s *System) awaitFlight(ctx context.Context, k cache.Key, x *tensor.T, f *cache.Flight[Decision], runOne runOneFn) (Decision, error) {
	pc := s.Cache
	for {
		d, err := f.Wait(ctx)
		if err == nil {
			return cloneDecision(d), nil
		}
		if ctx.Err() != nil || !isCtxErr(err) {
			return Decision{}, err
		}
		if d, ok := pc.get(k); ok {
			return cloneDecision(d), nil
		}
		var leader bool
		f, leader = pc.group.Join(k)
		if !leader {
			continue
		}
		d, err = runOne(ctx, x)
		if err != nil {
			pc.group.Finish(k, f, Decision{}, err)
			return Decision{}, err
		}
		pc.put(k, cloneDecision(d))
		pc.group.Finish(k, f, cloneDecision(d), nil)
		return d, nil
	}
}
