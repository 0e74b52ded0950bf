package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// This file implements per-network batched classification: instead of fanning
// individual images across workers (each paying a full per-image forward pass
// per member), the engine runs every still-undecided image through one member
// network at a time — the member's compiled nn.Net, at whatever element
// width its backend runs — in image tiles sized to the cache, so each
// member's weights are streamed once per tile and the fused minibatch
// kernels (batched im2col + GEMM, on the FMA microkernel where the machine
// has AVX2) do the heavy lifting on a working set that stays in L2.
//
// RADE staged-activation semantics are preserved exactly: all images follow
// the same global stage schedule the sequential engine uses (an initial chunk
// of max(Thr_Freq, 2) members, then +Batch per stage), images drop out of the
// batch at the stage boundary where classifySequential would have stopped,
// and the per-image Decision — label, reliability, votes, Activated count —
// matches what classifySequential returns on the same member rows.
// classifySequential, the executable statement of the paper's RADE semantics
// (activate in contribution order, stop once Thr_Freq is decided), lives in
// oracle_test.go: it is the reference the property tests hold this engine
// to, never a serving path. The kernels are batch-composition invariant
// (internal/nn/graph.go), so the Decision of an image, Confidence included,
// is the same bits in any batch.

// ClassifyBatch classifies every input and returns index-aligned decisions.
// Every still-undecided image runs through each member network in fused
// minibatch forward passes over cache-sized image tiles (see
// runMemberRange). Classify is
// this engine at a batch of one, and the kernels are batch-composition
// invariant, so ClassifyBatch(xs)[i] DeepEquals Classify(xs[i]) whatever
// else is in xs and whatever Workers is.
func (s *System) ClassifyBatch(xs []*tensor.T) []Decision {
	out, _ := s.ClassifyBatchContext(context.Background(), xs)
	return out
}

// ClassifyBatchContext is ClassifyBatch with cooperative cancellation: when
// the context is done before every item has been classified, the engine stops
// before the next member inference and ctx.Err() is returned with a nil
// slice. With a never-done context it behaves exactly like ClassifyBatch.
func (s *System) ClassifyBatchContext(ctx context.Context, xs []*tensor.T) ([]Decision, error) {
	if len(xs) == 0 {
		return []Decision{}, nil
	}
	if s.Cache != nil {
		return s.classifyBatchCached(ctx, xs)
	}
	return s.classifyBatchUncached(ctx, xs)
}

// classifyBatchUncached runs the batched engine, bypassing any attached
// cache.
func (s *System) classifyBatchUncached(ctx context.Context, xs []*tensor.T) ([]Decision, error) {
	ds, _, err := s.classifyBatchUncachedTagged(ctx, xs)
	return ds, err
}

// classifyBatchUncachedTagged is classifyBatchUncached plus the clean flag:
// true when every stage followed the static schedule (so the decisions are
// the reference ones and may be cached), false when an attached policy
// degraded the batch.
func (s *System) classifyBatchUncachedTagged(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
	return s.classifyBatchStaged(ctx, xs, s.Policy, s.batchStageArenaInfer())
}

// batchInferFn runs one member on a set of images and returns index-aligned
// probability rows. It must be safe for concurrent calls, on the same
// member or distinct ones.
type batchInferFn func(member int, xs []*tensor.T) [][]float64

// batchStageInferFn is batchInferFn with a per-stage backend override: when
// override is true the member should execute on backend be (falling back to
// its configured path if that variant is not compiled). It is the seam the
// StagePolicy engine drives.
type batchStageInferFn func(member int, be Backend, override bool, xs []*tensor.T) [][]float64

// batchImgState carries one image's staged-activation progress.
type batchImgState struct {
	rows     [][]float64
	votes    map[int]int
	accepted int
}

// classifyBatchStaged is the batched staged decision engine. Chunk
// boundaries replicate the sequential activate() checkpoints; within a chunk,
// members run over the pending images in (member, image tile) units
// (concurrently up to the Workers cap; see runMemberRange), and their rows
// are consumed in member order so vote accounting is
// order-identical to classifySequential. With a non-nil policy, each stage
// boundary is offered to the policy, which may deepen/flatten the schedule,
// halt escalation, or override the stage backend; the clean result reports
// whether the batch stayed on the static schedule — only clean batches may
// be stored in the prediction cache (nil policy is always clean, and
// bit-identical to the engine before the seam existed).
func (s *System) classifyBatchStaged(ctx context.Context, xs []*tensor.T, policy StagePolicy, infer batchStageInferFn) ([]Decision, bool, error) {
	n := len(s.Members)
	out := make([]Decision, len(xs))

	st := make([]batchImgState, len(xs))
	pending := make([]int, len(xs))
	for i := range pending {
		st[i].votes = make(map[int]int)
		pending[i] = i
	}
	pendXs := make([]*tensor.T, 0, len(xs))

	batch := s.Batch
	if batch < 1 {
		batch = 1
	}
	decided := func(im *batchImgState, active int) bool {
		_, leaderVotes, unique := modalVote(im.votes)
		if im.accepted > 0 && unique && leaderVotes >= s.Th.Freq {
			return true
		}
		return leaderVotes+(n-active) < s.Th.Freq
	}

	var deadline time.Time
	if policy != nil {
		if dl, ok := ctx.Deadline(); ok {
			deadline = dl
		}
	}

	clean := true
	active := 0
	for stage := 0; len(pending) > 0 && active < n; stage++ {
		end := n
		if s.Staged {
			if active == 0 {
				end = s.Th.Freq
				if end < 2 {
					end = 2
				}
			} else {
				end = active + batch
			}
			if end > n {
				end = n
			}
		}

		var req StageRequest
		var dec StageDecision
		var beSet bool
		var be Backend
		if policy != nil {
			req = StageRequest{
				Stage: stage, Active: active, Members: n,
				Pending: len(pending), BatchSize: len(xs),
				DefaultEnd: end, Deadline: deadline,
			}
			dec = policy.NextStage(req)
			var halt, deviates bool
			end, halt, deviates = resolveStage(req, dec)
			if deviates {
				clean = false
			}
			if halt {
				// Decide every pending image from the rows it already has;
				// Decision.Activated reports the shallower depth.
				for _, i := range pending {
					out[i] = Decide(st[i].rows, s.Th)
				}
				return out, clean, nil
			}
			be, beSet = dec.Backend, dec.BackendSet
		}

		pendXs = pendXs[:0]
		for _, i := range pending {
			pendXs = append(pendXs, xs[i])
		}
		var started time.Time
		if policy != nil {
			started = time.Now()
		}
		chunk, err := s.runMemberRange(ctx, active, end, pendXs, func(m int) int {
			return s.Members[m].resolveNet(be, beSet).Tile()
		}, func(m int, xs []*tensor.T) [][]float64 {
			return infer(m, be, beSet, xs)
		})
		if err != nil {
			return nil, false, err
		}
		if policy != nil {
			res := dec
			res.End = end
			policy.ObserveStage(req, res, time.Since(started))
		}
		for _, mrows := range chunk {
			for pi, i := range pending {
				row := mrows[pi]
				im := &st[i]
				im.rows = append(im.rows, row)
				pred := metrics.Argmax(row)
				if row[pred] >= s.Th.Conf {
					im.votes[pred]++
					im.accepted++
				}
			}
		}
		active = end

		keep := pending[:0]
		for _, i := range pending {
			if !s.Staged || active >= n || decided(&st[i], active) {
				out[i] = Decide(st[i].rows, s.Th)
			} else {
				keep = append(keep, i)
			}
		}
		pending = keep
	}
	return out, clean, nil
}

// workerCount resolves the effective worker-pool size for n units of work
// (Workers, or GOMAXPROCS when unset).
func (s *System) workerCount(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runMemberRange evaluates members [start, end) on the given images. The
// unit of work is a (member, image tile) pair: each member's images are
// split into tiles of tile(m) — the size its compiled net was sized to,
// shrunk when that leaves a worker idle — and the units run on a bounded
// pool (Workers cap) in member order. The context is polled before every
// unit; on cancellation the already-started units drain and ctx.Err() is
// returned. Each unit's rows land in its member's index-aligned slice, so
// the caller consumes members in priority order regardless of completion
// order, and the kernels' batch-composition invariance makes the rows the
// same bits whatever the tiling.
func (s *System) runMemberRange(ctx context.Context, start, end int, xs []*tensor.T, tile func(m int) int, infer batchInferFn) ([][][]float64, error) {
	count := end - start
	rows := make([][][]float64, count)
	// A unit keeps one P busy end to end, and its working set is sized to
	// the cache: more unit goroutines than Ps would only interleave them.
	workers := min(s.workerCount(math.MaxInt), runtime.GOMAXPROCS(0))
	type unit struct{ m, lo, hi int }
	var units []unit
	for m := start; m < end; m++ {
		rows[m-start] = make([][]float64, len(xs))
		// Enough tiles per member that every worker has a unit.
		perMember := max((len(xs)+tile(m)-1)/tile(m), (workers+count-1)/count)
		t := max(1, (len(xs)+perMember-1)/perMember)
		for lo := 0; lo < len(xs); lo += t {
			units = append(units, unit{m, lo, min(lo+t, len(xs))})
		}
	}
	run := func(u unit) {
		copy(rows[u.m-start][u.lo:u.hi], infer(u.m, xs[u.lo:u.hi]))
	}
	workers = min(workers, len(units))
	if workers <= 1 {
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			run(u)
		}
		return rows, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) || ctx.Err() != nil {
					return
				}
				run(units[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// batchScratch is one worker's scratch: an arena and the slab the member
// inputs are preprocessed into. The arena's slabs grow only for the
// element types drawn from them, so a pure-f64 system never allocates
// float32 or integer scratch and a pure int8 system never allocates
// float64 scratch.
type batchScratch struct {
	a tensor.Arena

	// Preprocessed member inputs of the call in flight: pre[i] points at
	// preT[i], whose pixels are a window of preSlab. All three are reused
	// by the next member call that draws this scratch from the free list.
	preSlab []float64
	preT    []tensor.T
	pre     []*tensor.T
}

// preprocess runs p over xs into the scratch slab and returns the member
// inputs, valid until the scratch goes back to its free list.
func (sc *batchScratch) preprocess(p preprocess.Preprocessor, xs []*tensor.T) []*tensor.T {
	total := 0
	for _, x := range xs {
		total += len(x.Data)
	}
	if cap(sc.preSlab) < total {
		sc.preSlab = make([]float64, total)
	}
	if cap(sc.preT) < len(xs) {
		sc.preT = make([]tensor.T, len(xs))
		sc.pre = make([]*tensor.T, len(xs))
	}
	pre, slab := sc.pre[:len(xs)], sc.preSlab[:total]
	for i, x := range xs {
		t := &sc.preT[i]
		t.Shape, t.Data = x.Shape, slab[:len(x.Data):len(x.Data)]
		slab = slab[len(x.Data):]
		p.ApplyTo(t, x)
		pre[i] = t
	}
	return pre
}

// scratchList is the free list of batch scratch, one per System, shared by
// every call and every concurrent (member, tile) unit. It holds at most as
// many scratches as were ever in flight at once — the worker cap per
// concurrent ClassifyBatch call, about GOMAXPROCS under the server's single
// batcher — and each scratch's arena is a high-water region, so the list
// is bounded by the largest tile forward it served, not by the batch or by
// how many batch sizes it saw. (Not a
// sync.Pool: that may drop its contents at any collection, and every drop
// rebuilds a scratch's arena from the heap.)
type scratchList struct {
	mu   sync.Mutex
	free []*batchScratch
}

func (l *scratchList) get() *batchScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		return sc
	}
	return &batchScratch{}
}

func (l *scratchList) put(sc *batchScratch) {
	l.mu.Lock()
	l.free = append(l.free, sc)
	l.mu.Unlock()
}

// batchStageArenaInfer returns the batched member execution strategy of
// one (member, tile) unit: preprocess the tile's images into the scratch
// slab, run the member's compiled net over them and return the probability
// rows. Scratch is drawn from the System's free list, so concurrent units
// never share arenas, and a scratch's arena grows to a tile, not to the
// batch. When the policy requests a backend, the member runs its variant
// for that backend (falling back to the configured net when PrepareAdaptive
// never compiled it, so a half-prepared system degrades to
// correct-but-static rather than failing).
func (s *System) batchStageArenaInfer() batchStageInferFn {
	return func(m int, be Backend, override bool, xs []*tensor.T) [][]float64 {
		sc := s.scratch.get()
		mem := &s.Members[m]
		st := s.verifySink(mem)
		sc.a.SetAbft(st)
		rows := mem.resolveNet(be, override).InferBatch(sc.preprocess(mem.Pre, xs), &sc.a)
		sc.a.Reset()
		if s.finishVerify(st) {
			// One fused call covers the unit's tile: an uncorrectable fault
			// cannot be attributed to a single image, so every row of the
			// tile abstains; the member's other tiles are unaffected.
			for _, row := range rows {
				suspectRow(row)
			}
		}
		s.scratch.put(sc)
		return rows
	}
}
