package core

import (
	"context"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// This file holds the batched entry points of the system and
// classifyParallel, the speculative per-image strategy that survives (with
// classifySequential) as an executable statement of the RADE semantics the
// batched engine is tested against. Every path produces decisions identical
// to classifySequential on the same member rows — concurrency changes
// wall-clock time, never semantics.

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

// ClassifyBatch classifies every input and returns index-aligned decisions.
// It takes the per-network batched path: every still-undecided image runs
// through each member network in one fused minibatch forward pass (see
// classifyBatchStagedWith), which is substantially faster than per-image
// fan-out because each member's weights stream through the cache once per
// stage for the whole batch. Classify is this engine at a batch of one, and
// the kernels are batch-composition invariant, so ClassifyBatch(xs)[i]
// DeepEquals Classify(xs[i]) whatever else is in xs and whatever Workers is.
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
// degraded the batch. Every batch size and every Workers setting runs the
// one fused staged engine.
func (s *System) classifyBatchUncachedTagged(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
	return s.classifyBatchStaged(ctx, xs, s.batchStageArenaInfer())
}
