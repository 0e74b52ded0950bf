package core

import (
	"context"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// This file holds the reference semantics the served engine is tested
// against. classifySequential is the paper's RADE cascade written out one
// image and one member at a time; the property tests feed it the same
// member rows as classifyBatchStaged, so they check scheduling and vote
// accounting, not arithmetic.

// inferFn abstracts running member i on an input: the seam classifySequential
// is written against, so the property tests can drive it with synthetic
// softmax vectors.
type inferFn func(member int, x *tensor.T) []float64

// classifySequential runs members one after another on the calling
// goroutine. It is the reference implementation of the engine semantics.
// The context is polled before each member forward pass.
func (s *System) classifySequential(ctx context.Context, x *tensor.T, infer inferFn) (Decision, error) {
	n := len(s.Members)
	if !s.Staged {
		rows := make([][]float64, n)
		for i := range rows {
			if err := ctx.Err(); err != nil {
				return Decision{}, err
			}
			rows[i] = infer(i, x)
		}
		return Decide(rows, s.Th), nil
	}

	batch := s.Batch
	if batch < 1 {
		batch = 1
	}
	votes := make(map[int]int)
	accepted := 0
	var rows [][]float64
	active := 0
	activate := func(k int) error {
		for ; active < k && active < n; active++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			row := infer(active, x)
			rows = append(rows, row)
			pred := metrics.Argmax(row)
			if row[pred] >= s.Th.Conf {
				votes[pred]++
				accepted++
			}
		}
		return nil
	}
	// At least two members in the initial stage (see Recorded.Staged).
	initial := s.Th.Freq
	if initial < 2 {
		initial = 2
	}
	if err := activate(initial); err != nil {
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
		if err := activate(active + batch); err != nil {
			return Decision{}, err
		}
	}
	return Decide(rows, s.Th), nil
}

// classifyBatchNetworks runs the served batched engine under the static
// schedule (no policy) on an injected member seam.
func (s *System) classifyBatchNetworks(ctx context.Context, xs []*tensor.T, infer batchInferFn) ([]Decision, error) {
	ds, _, err := s.classifyBatchStaged(ctx, xs, nil,
		func(m int, _ Backend, _ bool, pend []*tensor.T) [][]float64 { return infer(m, pend) })
	return ds, err
}
