package server

import (
	"context"
	"errors"
	"time"

	polygraph "repro"
	"repro/internal/server/telemetry"
)

// item is one image queued for classification, plus the channel its
// request handler is waiting on.
type item struct {
	img  polygraph.Image
	ctx  context.Context
	enq  time.Time       // when the item entered the admission queue
	done chan itemResult // buffered(1): the batcher never blocks delivering
}

type itemResult struct {
	pred polygraph.Prediction
	err  error
}

// errServerStopped is delivered to items still queued when the batcher is
// told to stop (only possible when their handlers already gave up).
var errServerStopped = errors.New("server: stopped before the image was classified")

// runBatcher is the single goroutine that turns the admission queue into
// ClassifyBatch calls: it blocks for the first queued image, coalesces
// whatever else arrives within BatchWindow (up to MaxBatch), and dispatches
// the batch to the backend. One goroutine is enough — the parallelism lives
// inside ClassifyBatch's worker pool, and a single consumer keeps batch
// formation free of cross-goroutine coordination.
func (s *Server) runBatcher() {
	defer close(s.batcherDone)
	// One timer serves every batch: collect re-arms it per window instead of
	// allocating a fresh timer (and its runtime bookkeeping) per batch. The
	// invariant across collect calls is "stopped with a drained channel".
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		var first *item
		select {
		case first = <-s.queue:
		case <-s.stop:
			s.failLeftovers()
			return
		}
		batch := s.collect(first, timer)
		s.release(len(batch))
		s.dispatch(batch)
		if s.cfg.Policy != nil {
			s.metrics.ObservePolicy(policySample(s.cfg.Policy.Snapshot()))
		}
	}
}

// collect gathers a batch starting from first: up to maxBatch images, not
// waiting longer than window past the first. The shape comes from the SLO
// policy when one is configured (fed the live queue depth, which still
// counts first's reserved slot), otherwise from the static config. timer
// arrives stopped-and-drained and is returned the same way.
func (s *Server) collect(first *item, timer *time.Timer) []*item {
	window, maxBatch := s.cfg.BatchWindow, s.cfg.MaxBatch
	if s.cfg.Policy != nil {
		window, maxBatch = s.cfg.Policy.PlanBatch(int(s.depth.Load()))
		if maxBatch < 1 {
			maxBatch = 1
		}
	}
	batch := append(make([]*item, 0, maxBatch), first)
	if window <= 0 {
		// No waiting: take only what is already queued.
		for len(batch) < maxBatch {
			select {
			case it := <-s.queue:
				batch = append(batch, it)
			default:
				return batch
			}
		}
		return batch
	}
	timer.Reset(window)
	for len(batch) < maxBatch {
		select {
		case it := <-s.queue:
			batch = append(batch, it)
		case <-timer.C:
			// The timer fired and its channel is drained — already back in
			// the invariant state.
			return batch
		}
	}
	// Filled to maxBatch before the window closed: disarm the timer,
	// draining the channel if it fired concurrently.
	if !timer.Stop() {
		<-timer.C
	}
	return batch
}

// release returns n reserved admission slots.
func (s *Server) release(n int) {
	s.metrics.QueueDepth.Set(s.depth.Add(-int64(n)))
}

// dispatch classifies one coalesced batch. Items whose context is already
// done are answered with their context error without being classified; the
// rest share one ClassifyBatchContext call whose context carries the
// latest deadline among them, so the RADE cancellation plumbing in
// internal/core stops member evaluation once nobody is left waiting.
func (s *Server) dispatch(batch []*item) {
	live := batch[:0]
	for _, it := range batch {
		wait := time.Since(it.enq)
		s.metrics.QueueWait.Observe(wait.Seconds())
		if s.cfg.Policy != nil {
			s.cfg.Policy.ObserveQueueWait(wait)
		}
		if err := it.ctx.Err(); err != nil {
			it.done <- itemResult{err: err}
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}

	bctx, cancel := batchContext(live)
	defer cancel()

	images := make([]polygraph.Image, len(live))
	for i, it := range live {
		images[i] = it.img
	}
	s.metrics.ObserveBatch(len(images))
	preds, err := s.cfg.Backend.ClassifyBatchContext(bctx, images)
	if err != nil {
		for _, it := range live {
			// Prefer the item's own context error so a request that
			// exceeded its deadline reports DeadlineExceeded, not the
			// batch-level abort.
			if ierr := it.ctx.Err(); ierr != nil {
				it.done <- itemResult{err: ierr}
			} else {
				it.done <- itemResult{err: err}
			}
		}
		return
	}
	for i, it := range live {
		s.metrics.ObserveDecision(preds[i].Reliable, preds[i].Agreement, preds[i].Activated)
		it.done <- itemResult{pred: preds[i]}
	}
	s.mirrorCache()
	if rep, ok := s.cfg.Backend.(AbftReporter); ok && rep.Verified() {
		c := rep.AbftCounts()
		s.metrics.ObserveAbft(c.Checks, c.Detected, c.Corrected, c.Uncorrectable)
	}
	if cr, ok := s.cfg.Backend.(ClusterReporter); ok && cr.Clustered() {
		st := cr.ClusterStats()
		s.metrics.ObserveCluster(telemetry.ClusterSample{
			Owned:         st.Owned,
			Forwarded:     st.Forwarded,
			Fallback:      st.Fallback,
			Served:        st.Served,
			ForwardErrors: st.ForwardErrors,
			PeersUp:       st.PeersUp,
			PeersTotal:    st.PeersTotal,
			Conns:         st.Conns,
		})
	}
}

// batchContext derives the context for one backend call: when every item
// carries a deadline, the batch runs under the latest of them (earlier
// items time out at their own handlers); otherwise the batch is unbounded.
func batchContext(live []*item) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, it := range live {
		d, ok := it.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// failLeftovers answers any items still queued at stop time. Drain only
// closes the stop channel after every in-flight request finished, so
// leftovers can only belong to handlers that already timed out.
func (s *Server) failLeftovers() {
	for {
		select {
		case it := <-s.queue:
			s.release(1)
			it.done <- itemResult{err: errServerStopped}
		default:
			return
		}
	}
}
