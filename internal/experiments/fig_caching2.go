package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/persist"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

func init() {
	register("ext-caching2", ExtCaching2)
}

// ExtCaching2 measures the prediction cache's persistent L2 tier: how fast
// a restarted server's cache recovers — the cold-start
// time-to-99%-hit-ratio — with and without a disk tier under the in-memory
// cache. A first process warms a tiered cache on a Zipf workload and shuts
// down cleanly; then the same stream is replayed against (a) a fresh
// memory-only cache (every entry recomputed) and (b) a fresh tiered cache
// on the same directory (entries promoted from disk). The experiment
// reports, for each, the frames and wall time until the rolling hit ratio
// first reaches 99%, and verifies every replayed decision against the
// uncached baseline.
func ExtCaching2(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	sys, err := core.BuildSystem(ctx.Zoo, b, design.Variants)
	if err != nil {
		return nil, err
	}
	sys.Workers = ctx.Workers

	ds, err := ctx.Zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	pool := len(ds.Test)
	if pool > 64 {
		pool = 64
	}
	if pool < 2 {
		return nil, fmt.Errorf("ext-caching2: dataset too small (%d test images)", pool)
	}
	s := ctx.ZipfS
	if s <= 1 {
		s = 1.1
	}
	const batch = 32
	const batches = 48
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, s, 1, uint64(pool-1))
	frames := make([]*tensor.T, batch*batches)
	for i := range frames {
		frames[i] = ds.Test[zipf.Uint64()].X
	}

	dir := ctx.CacheDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "pgmr-l2-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	cacheMB := ctx.CacheMB
	if cacheMB <= 0 {
		cacheMB = 64
	}
	memCfg := cache.Config{MaxBytes: int64(cacheMB) << 20, TTL: ctx.CacheTTL}
	diskCfg := persist.Config{Dir: dir, TTL: ctx.CacheTTL}

	// Uncached baseline decisions for the identity check.
	baseline := make([]core.Decision, 0, len(frames))
	for i := 0; i < len(frames); i += batch {
		baseline = append(baseline, sys.ClassifyBatch(frames[i:i+batch])...)
	}

	// replay streams the workload through the current cache, returning the
	// frames and wall time until the per-batch hit ratio first reaches 99%
	// (-1 when it never does), plus the total wall time.
	replay := func(pc *core.PredictionCache) (reached int, toReach, total time.Duration, err error) {
		start := time.Now()
		reached = -1
		prev := pc.Stats()
		for i := 0; i < len(frames); i += batch {
			ds := sys.ClassifyBatch(frames[i : i+batch])
			for j, d := range ds {
				bd := baseline[i+j]
				if d.Label != bd.Label || d.Reliable != bd.Reliable || d.Activated != bd.Activated {
					return 0, 0, 0, fmt.Errorf("ext-caching2: cached decision diverges on frame %d", i+j)
				}
			}
			st := pc.Stats()
			hits, misses := st.Hits-prev.Hits, st.Misses-prev.Misses
			prev = st
			if reached < 0 && hits+misses > 0 && float64(hits)/float64(hits+misses) >= 0.99 {
				reached = i + batch
				toReach = time.Since(start)
			}
		}
		return reached, toReach, time.Since(start), nil
	}

	// First boot: a tiered cache on an empty directory. This both measures
	// the cold path and produces the on-disk state the restarts replay over.
	pc, err := sys.EnableTieredCache(memCfg, diskCfg, "bits=0")
	if err != nil {
		return nil, err
	}
	coldReach, coldT, coldTotal, err := replay(pc)
	if err != nil {
		return nil, err
	}
	warmStats := pc.Stats()
	if err := pc.FlushL2(); err != nil {
		return nil, err
	}
	if err := pc.Close(); err != nil {
		return nil, err
	}

	// Restart without L2: memory-only, everything recomputed.
	pcMem := sys.EnableCache(memCfg, "bits=0")
	memReach, memT, memTotal, err := replay(pcMem)
	if err != nil {
		return nil, err
	}

	// Restart with L2: fresh memory, warm disk.
	pcL2, err := sys.EnableTieredCache(memCfg, diskCfg, "bits=0")
	if err != nil {
		return nil, err
	}
	l2Reach, l2T, l2Total, err := replay(pcL2)
	if err != nil {
		return nil, err
	}
	l2Stats := pcL2.Stats()
	closeErr := pcL2.Close()
	sys.Cache = nil
	if closeErr != nil {
		return nil, closeErr
	}

	n := len(frames)
	res := &Result{
		ID: "ext-caching2", Title: "Persistent-tier cold start: time to 99% hit ratio with and without L2 (extension)",
		Header: []string{"configuration", "frames", "frames to 99%", "time to 99%", "total wall", "img/sec"},
	}
	row := func(name string, reach int, toReach, total time.Duration) {
		r := "-"
		tr := "-"
		if reach >= 0 {
			r = fmt.Sprint(reach)
			tr = toReach.Round(time.Millisecond).String()
		}
		res.AddRow(name, fmt.Sprint(n), r, tr,
			total.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(n)/total.Seconds()))
	}
	row("first boot (tiered, empty dir)", coldReach, coldT, coldTotal)
	row("restart, memory only", memReach, memT, memTotal)
	row("restart, with L2", l2Reach, l2T, l2Total)
	res.AddNote("4-member %s system, Zipf(s=%.2f) over a %d-image pool, batch=%d; decisions verified identical to uncached on every frame",
		b.Name, s, pool, batch)
	res.AddNote("first boot flushed %d records (%d B live); L2 restart promoted %d decisions from disk, recovered %d entries",
		warmStats.L2Flushed, warmStats.L2Bytes, l2Stats.L2Hits, l2Stats.L2Entries)
	res.CacheTiers = cacheTierStats(l2Stats)
	return res, nil
}
