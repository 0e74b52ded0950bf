package server

import (
	"context"
	"errors"
	"time"

	polygraph "repro"
	"repro/internal/server/telemetry"
)

// item is one image queued for classification, plus the channel its
// request handler is waiting on. The admission queue carries items in
// groups, one group per admitted request, in request order.
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

// admit reserves one admission slot per image and queues them as one group,
// so the batcher sees the request whole. All-or-nothing: when the images do
// not fit under QueueDepth nothing is reserved and ok is false. The queue
// channel has room for QueueDepth groups and every group holds at least one
// reserved slot, so the send never blocks.
func (s *Server) admit(ctx context.Context, images []polygraph.Image) (group []*item, ok bool) {
	k := int64(len(images))
	depth := s.depth.Add(k)
	if depth > int64(s.cfg.QueueDepth) {
		s.depth.Add(-k)
		return nil, false
	}
	s.metrics.QueueDepth.Set(depth)
	enq := time.Now()
	items := make([]item, len(images)) // one allocation for the whole request
	group = make([]*item, len(images))
	for i, im := range images {
		items[i] = item{img: im, ctx: ctx, enq: enq, done: make(chan itemResult, 1)}
		group[i] = &items[i]
	}
	s.queue <- group
	return group, true
}

// runBatcher is the single goroutine that turns the admission queue into
// ClassifyBatch calls. It is work-conserving: it blocks only for the first
// queued group, takes whatever else is already queued (up to the batch cap)
// and dispatches at once. While a batch runs, arrivals queue behind it, so
// the service time is the coalescing window — an idle engine never waits
// for batchmates that may not come. One goroutine is enough — the
// parallelism lives inside ClassifyBatch's worker pool, and a single
// consumer keeps batch formation free of cross-goroutine coordination.
func (s *Server) runBatcher() {
	defer close(s.batcherDone)
	var carry []*item // what collect left for the head of the next batch
	for {
		if len(carry) == 0 {
			select {
			case carry = <-s.queue:
			case <-s.stop:
			}
		}
		select {
		case <-s.stop:
			s.failLeftovers(carry)
			return
		default:
		}
		var batch []*item
		batch, carry = s.collect(carry)
		s.release(len(batch))
		s.dispatch(batch)
		if s.cfg.Policy != nil {
			s.metrics.ObservePolicy(policySample(s.cfg.Policy.Snapshot()))
		}
	}
}

// collect forms one batch starting from the group head: head plus every
// already-queued group that still fits under the batch cap. The cap comes
// from the SLO policy when one is configured (fed the live queue depth,
// which still counts head's reserved slots), otherwise from the static
// config. A request is never split across batches unless it alone exceeds
// the cap: a group that does not fit is returned whole as carry and heads
// the next batch; an oversized head is chunked at the cap.
func (s *Server) collect(head []*item) (batch, carry []*item) {
	maxBatch := s.cfg.MaxBatch
	if s.cfg.Policy != nil {
		maxBatch = max(s.cfg.Policy.PlanBatch(int(s.depth.Load())), 1)
	}
	if len(head) > maxBatch {
		return head[:maxBatch], head[maxBatch:]
	}
	// The handler still reads its group; cap the slice so appending
	// batchmates copies instead of growing into the handler's array.
	batch = head[:len(head):len(head)]
	for len(batch) < maxBatch {
		select {
		case g := <-s.queue:
			if len(batch)+len(g) > maxBatch {
				return batch, g
			}
			batch = append(batch, g...)
		default:
			return batch, nil
		}
	}
	return batch, nil
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
	live := make([]*item, 0, len(batch)) // batch may alias a handler's group
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

// failLeftovers answers and releases every item still held at stop time:
// the carried-over group first, then every queued one. Drain only closes
// the stop channel after every in-flight request finished, so leftovers can
// only belong to handlers that already timed out.
func (s *Server) failLeftovers(carry []*item) {
	for g := carry; ; {
		for _, it := range g {
			it.done <- itemResult{err: errServerStopped}
		}
		s.release(len(g))
		select {
		case g = <-s.queue:
		default:
			return
		}
	}
}
