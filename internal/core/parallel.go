package core

import (
	"context"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// This file implements the concurrent execution strategies of the system:
// parallel member evaluation inside a single Classify (with RADE staged
// activation preserved through speculative stages plus context-based
// cancellation), and batched classification that fans items across a worker
// pool with per-worker scratch arenas. Both paths produce decisions
// identical to classifySequential — the concurrency changes wall-clock
// time, never semantics.

// workerCount resolves the effective worker-pool size for n units of work.
func (s *System) workerCount(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// classifyParallel evaluates members concurrently on a bounded worker pool.
//
// All members are submitted in RADE priority order, so the pool starts the
// highest-contribution networks first and speculatively runs later-stage
// members while the decision loop is still consuming earlier results. The
// decision loop replicates classifySequential exactly: it consumes member
// results in priority order, stage by stage, and stops at the same member
// the sequential engine would — speculative results beyond that point are
// discarded and the context cancels tasks that have not started yet.
//
// The parent context doubles as the caller's deadline: when it is done
// before the decision is determined, the wait aborts, pending tasks are
// cancelled, and ctx.Err() is returned.
func (s *System) classifyParallel(parent context.Context, x *tensor.T, infer inferFn) (Decision, error) {
	n := len(s.Members)
	workers := s.workerCount(n)
	if workers <= 1 || n <= 1 {
		return s.classifySequential(parent, x, infer)
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	rows := make([][]float64, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	tasks := make(chan int)
	// Feed member indices in priority order; stop feeding once cancelled.
	go func() {
		defer close(tasks)
		for i := 0; i < n; i++ {
			select {
			case tasks <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range tasks {
				select {
				case <-ctx.Done():
					return
				default:
				}
				rows[i] = infer(i, x)
				close(ready[i])
			}
		}()
	}
	// wait blocks until member i's speculative result is ready, aborting
	// when the context is done (a worker that skipped the task after
	// cancellation never closes ready[i], so the ctx arm is load-bearing).
	wait := func(i int) error {
		select {
		case <-ready[i]:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Decision loop: identical staging to classifySequential, but "running
	// a member" is waiting for its speculative result.
	if !s.Staged {
		all := make([][]float64, n)
		for i := 0; i < n; i++ {
			if err := wait(i); err != nil {
				return Decision{}, err
			}
			all[i] = rows[i]
		}
		return Decide(all, s.Th), nil
	}

	batch := s.Batch
	if batch < 1 {
		batch = 1
	}
	votes := make(map[int]int)
	accepted := 0
	var consumed [][]float64
	active := 0
	consume := func(k int) error {
		for ; active < k && active < n; active++ {
			if err := wait(active); err != nil {
				return err
			}
			row := rows[active]
			consumed = append(consumed, row)
			pred := metrics.Argmax(row)
			if row[pred] >= s.Th.Conf {
				votes[pred]++
				accepted++
			}
		}
		return nil
	}
	initial := s.Th.Freq
	if initial < 2 {
		initial = 2
	}
	if err := consume(initial); err != nil {
		return Decision{}, err
	}
	decided := func() bool {
		_, leaderVotes, unique := modalVote(votes)
		if accepted > 0 && unique && leaderVotes >= s.Th.Freq {
			return true
		}
		return leaderVotes+(n-active) < s.Th.Freq
	}
	for !decided() && active < n {
		if err := consume(active + batch); err != nil {
			return Decision{}, err
		}
	}
	return Decide(consumed, s.Th), nil
}

// arenaInfer returns a member execution strategy whose forward passes draw
// every intermediate tensor from the given arena. The arena is reset after
// each member, so the strategy makes almost no heap allocations. Members on
// a reduced-precision backend draw from a lazily created float32 arena
// instead. Not safe for concurrent use — each worker owns its arenas.
func (s *System) arenaInfer(a *tensor.Arena) inferFn {
	var a32 *tensor.Arena32
	return func(i int, x *tensor.T) []float64 {
		m := &s.Members[i]
		st := s.verifySink(m)
		var row []float64
		if m.net32 != nil {
			if a32 == nil {
				a32 = tensor.NewArena32()
			}
			a32.SetAbft(st)
			row = m.net32.InferBatch([]*tensor.T{m.Pre.Apply(x)}, a32)[0]
			a32.Reset()
		} else {
			a.SetAbft(st)
			probs := m.Net.InferArena(m.Pre.Apply(x), a)
			row = append([]float64(nil), probs.Data...)
			a.Reset()
		}
		if s.finishVerify(st) {
			suspectRow(row)
		}
		return row
	}
}

// ClassifyBatch classifies every input and returns index-aligned decisions.
// With Workers > 1 (or unset on a multi-core host) it takes the per-network
// batched path: every still-undecided image runs through each member network
// in one fused minibatch forward pass (see classifyBatchNetworks), which is
// substantially faster than per-image fan-out because each member's weights
// stream through the cache once per stage for the whole batch. Decisions
// match Classify on label, reliability, votes and Activated count; the
// Confidence may differ within the batched-kernel float tolerance (softmax
// |Δ| ≤ 1e-9). With Workers == 1 it runs the bit-exact sequential per-image
// path.
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
// cache: the per-network fused path when the worker pool allows it, the
// bit-exact sequential per-image arena path otherwise.
func (s *System) classifyBatchUncached(ctx context.Context, xs []*tensor.T) ([]Decision, error) {
	ds, _, err := s.classifyBatchUncachedTagged(ctx, xs)
	return ds, err
}

// classifyBatchUncachedTagged is classifyBatchUncached plus the clean flag:
// true when every stage followed the static schedule (so the decisions are
// the reference ones and may be cached), false when an attached policy
// degraded the batch. With a policy attached the fused staged engine always
// runs — even at Workers == 1 — because the policy's stage semantics only
// exist there; without one, Workers == 1 keeps the bit-exact sequential
// per-image path.
func (s *System) classifyBatchUncachedTagged(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
	if s.Policy == nil && s.workerCount(len(xs)) == 1 {
		out := make([]Decision, len(xs))
		a := tensor.NewArena()
		infer := s.arenaInfer(a)
		for i, x := range xs {
			d, err := s.classifySequential(ctx, x, infer)
			if err != nil {
				return nil, false, err
			}
			out[i] = d
		}
		return out, true, nil
	}
	return s.classifyBatchStaged(ctx, xs, s.batchStageArenaInfer())
}
