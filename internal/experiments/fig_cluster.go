package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

func init() {
	register("ext-cluster", ExtCluster)
}

// countingBackend wraps one node's engine and records every image key that
// reaches it, so the experiment can verify the routing exclusivity claim:
// with every peer up, each unique image enters exactly one node's engine —
// its consistent-hash owner — no matter which node the request arrived at.
type countingBackend struct {
	sys *core.System
	fp  cache.Fingerprint

	mu   sync.Mutex
	seen map[cache.Key]struct{}
}

func (cb *countingBackend) ClassifyBatchContext(ctx context.Context, xs []*tensor.T) ([]core.Decision, error) {
	cb.mu.Lock()
	for _, x := range xs {
		cb.seen[cache.ImageKey(cb.fp, x.Shape, x.Data)] = struct{}{}
	}
	cb.mu.Unlock()
	return cb.sys.ClassifyBatchContext(ctx, xs)
}

// ExtCluster measures the scale-out serving cluster (DESIGN.md §13) against
// single-node serving: one process per node, loopback TCP between them,
// each node running the full cached MR system. Every node streams the same
// Zipf workload concurrently — the closed-loop aggregate — twice: a cold
// pass that populates the partitioned cache and a warm pass served from it.
// The runner itself enforces the acceptance properties: every decision of
// both passes and both cluster sizes is DeepEqual-identical to a
// single-process baseline, each unique image is computed by exactly one
// node (its ring owner), and no request degrades to fallback while every
// peer is up.
func ExtCluster(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	ds, err := ctx.Zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	pool := len(ds.Test)
	if pool > 64 {
		pool = 64
	}
	if pool < 2 {
		return nil, fmt.Errorf("ext-cluster: dataset too small (%d test images)", pool)
	}
	s := ctx.ZipfS
	if s <= 1 {
		s = 1.1
	}
	const batch = 32
	const batches = 24
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, s, 1, uint64(pool-1))
	frames := make([]*tensor.T, batch*batches)
	for i := range frames {
		frames[i] = ds.Test[zipf.Uint64()].X
	}

	cacheMB := ctx.CacheMB
	if cacheMB <= 0 {
		cacheMB = 64
	}
	const salt = "bits=0"

	mkSys := func() (*core.System, error) {
		sys, err := core.BuildSystem(ctx.Zoo, b, design.Variants)
		if err != nil {
			return nil, err
		}
		sys.Workers = ctx.Workers
		return sys, nil
	}

	// Single-process baseline decisions (uncached) for the identity check.
	baseSys, err := mkSys()
	if err != nil {
		return nil, err
	}
	baseline := make([]core.Decision, 0, len(frames))
	for i := 0; i < len(frames); i += batch {
		baseline = append(baseline, baseSys.ClassifyBatch(frames[i:i+batch])...)
	}

	// runCluster stands up n in-process nodes over loopback, streams the
	// workload from every node concurrently (cold then warm pass), verifies
	// the acceptance properties, and returns the measured point.
	runCluster := func(n int) (clusterPoint, error) {
		point := clusterPoint{Nodes: n}

		ids := make([]string, n)
		peers := map[string]string{}
		lns := make([]net.Listener, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("n%d", i)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return point, err
			}
			lns[i] = ln
			peers[ids[i]] = ln.Addr().String()
		}
		nodes := make([]*cluster.Node, n)
		backends := make([]*countingBackend, n)
		caches := make([]*core.PredictionCache, n)
		defer func() {
			for _, nd := range nodes {
				if nd != nil {
					nd.Close()
				}
			}
		}()
		for i := range ids {
			sys, err := mkSys()
			if err != nil {
				return point, err
			}
			caches[i] = sys.EnableCache(cache.Config{MaxBytes: int64(cacheMB) << 20}, salt)
			fp := sys.ConfigFingerprint(salt)
			backends[i] = &countingBackend{sys: sys, fp: fp, seen: map[cache.Key]struct{}{}}
			nd, err := cluster.New(cluster.Config{
				NodeID:      ids[i],
				Peers:       peers,
				Backend:     backends[i],
				Fingerprint: fp,
			})
			if err != nil {
				return point, err
			}
			nodes[i] = nd
			go nd.Serve(lns[i])
		}

		// pass streams the full workload from every node concurrently and
		// verifies each returned decision against the baseline.
		pass := func() (time.Duration, error) {
			start := time.Now()
			errc := make(chan error, n)
			var wg sync.WaitGroup
			for _, nd := range nodes {
				wg.Add(1)
				go func(nd *cluster.Node) {
					defer wg.Done()
					for i := 0; i < len(frames); i += batch {
						got, err := nd.ClassifyBatch(context.Background(), frames[i:i+batch])
						if err != nil {
							errc <- fmt.Errorf("ext-cluster: node %s: %w", nd.NodeID(), err)
							return
						}
						for j, d := range got {
							if !reflect.DeepEqual(d, baseline[i+j]) {
								errc <- fmt.Errorf("ext-cluster: node %s frame %d diverges from single-process baseline", nd.NodeID(), i+j)
								return
							}
						}
					}
				}(nd)
			}
			wg.Wait()
			select {
			case err := <-errc:
				return 0, err
			default:
			}
			return time.Since(start), nil
		}

		coldT, err := pass()
		if err != nil {
			return point, err
		}
		// Warm-pass hit ratio is measured as a delta over the cold pass.
		prevHits, prevMisses := uint64(0), uint64(0)
		for _, pc := range caches {
			st := pc.Stats()
			prevHits += st.Hits
			prevMisses += st.Misses
		}
		warmT, err := pass()
		if err != nil {
			return point, err
		}
		hits, misses := uint64(0), uint64(0)
		for _, pc := range caches {
			st := pc.Stats()
			hits += st.Hits
			misses += st.Misses
		}
		hits -= prevHits
		misses -= prevMisses

		// Routing exclusivity: no image key may have entered two engines.
		unique := map[cache.Key]int{}
		for _, be := range backends {
			be.mu.Lock()
			for k := range be.seen {
				unique[k]++
			}
			be.mu.Unlock()
		}
		for k, c := range unique {
			if c > 1 {
				return point, fmt.Errorf("ext-cluster: image key %s computed on %d nodes", k, c)
			}
		}

		for _, nd := range nodes {
			st := nd.Stats()
			point.Owned += st.Owned
			point.Forwarded += st.Forwarded
			if st.Fallback != 0 || st.ForwardErrors != 0 {
				return point, fmt.Errorf("ext-cluster: node %s degraded with every peer up: %+v", nd.NodeID(), st)
			}
		}
		point.Images = n * len(frames)
		point.ColdImgPerSec = float64(point.Images) / coldT.Seconds()
		point.WarmImgPerSec = float64(point.Images) / warmT.Seconds()
		if hits+misses > 0 {
			point.HitRatio = float64(hits) / float64(hits+misses)
		}
		point.UniqueComputes = len(unique)
		return point, nil
	}

	points := make([]clusterPoint, 0, 2)
	for _, n := range []int{1, 3} {
		p, err := runCluster(n)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}

	res := &Result{
		ID: "ext-cluster", Title: "Scale-out cluster serving: 1 vs 3 consistent-hash routed nodes (extension)",
		Header: []string{"nodes", "images", "cold img/s", "warm img/s", "hit ratio", "owned", "forwarded", "unique keys"},
	}
	for _, p := range points {
		res.AddRow(fmt.Sprint(p.Nodes), fmt.Sprint(p.Images),
			fmt.Sprintf("%.1f", p.ColdImgPerSec), fmt.Sprintf("%.1f", p.WarmImgPerSec),
			fmt.Sprintf("%.3f", p.HitRatio),
			fmt.Sprint(p.Owned), fmt.Sprint(p.Forwarded), fmt.Sprint(p.UniqueComputes))
	}
	res.AddNote("4-member %s systems, Zipf(s=%.2f) over a %d-image pool, batch=%d; every node streams the full %d-frame workload concurrently, twice (cold then warm)",
		b.Name, s, pool, batch, len(frames))
	res.AddNote("every decision of both passes verified DeepEqual-identical to the single-process baseline; each unique image computed on exactly one node; zero fallbacks with all peers up")
	return res, nil
}

// clusterPoint is one cluster size's row of ExtCluster's table.
type clusterPoint struct {
	// Nodes is the cluster size; Images the aggregate image count of each
	// pass (every node streams the full workload concurrently).
	Nodes, Images int
	// ColdImgPerSec is the aggregate throughput of the cache-cold first
	// pass, WarmImgPerSec of the second pass over the same stream.
	ColdImgPerSec, WarmImgPerSec float64
	// HitRatio is the warm pass's hit ratio summed over every node's cache.
	HitRatio float64
	// Owned and Forwarded are the routing counters summed over nodes.
	Owned, Forwarded uint64
	// UniqueComputes is how many distinct image keys entered an engine
	// anywhere in the cluster.
	UniqueComputes int
}
