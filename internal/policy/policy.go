// Package policy implements the SLO-driven adaptive cascade controller: a
// runtime policy that reshapes PolygraphMR's staged schedule per batch —
// stage depth, early/late backend precision, and the server's batch cap —
// so the p99 of the per-request latency budget is met at the
// highest accuracy tier the load allows (DESIGN.md §12).
//
// The controller implements core.StagePolicy. It keeps an online cost model
// (EWMA of measured per-stage latency per image·member, keyed by stage ×
// backend × batch-size bucket; see cost.go), a live queue-depth signal fed
// by the server, and a ladder of degradation tiers built from the system's
// configured backends. Tier 0 is the static configuration — the controller
// returns exactly the default schedule there, so unloaded serving is
// bit-identical to a policy-free system and its decisions remain cacheable.
// Under pressure it steps down one-way immediately (cheaper early backend,
// then a fused full-committee fallback, then shallower stages) and steps
// back up one tier at a time only after a sustained healthy streak — the
// hysteresis that keeps the controller from oscillating at a load edge.
package policy

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config parameterizes a Controller. The zero value is not usable: SLO,
// Members and Freq must describe the target system (polygraph.Build fills
// them from the assembled System).
type Config struct {
	// SLO is the per-request latency budget the controller steers to
	// (required, > 0). The controller aims the predicted batch residence
	// time at Safety × SLO.
	SLO time.Duration

	// Members is the committee size (required, ≥ 1), Freq is Thr_Freq and
	// StageBatch the per-stage member increment — together the static RADE
	// schedule the tiers degrade from.
	Members    int
	Freq       int
	StageBatch int

	// BaseEarly and BaseLate are the configured backends of the initial
	// chunk and of the escalation stages — tier 0 of the ladder.
	BaseEarly core.Backend
	BaseLate  core.Backend

	// BaseWindow is ignored: the server's batcher is work-conserving and
	// has no window to plan.
	//
	// Deprecated: kept only so the frozen benchmark module compiles; the
	// next benchmark issue removes it.
	BaseWindow time.Duration
	// BaseMaxBatch is the server's configured batch cap; PlanBatch grows it
	// with the backlog. MaxBatchCap bounds how far (default 4×BaseMaxBatch,
	// at least 256).
	BaseMaxBatch int
	MaxBatchCap  int

	// Alpha is the EWMA weight of new cost samples (default 0.2).
	Alpha float64
	// Safety is the fraction of SLO the controller budgets for (default
	// 0.8 — the headroom absorbs estimation error and queueing jitter).
	Safety float64
	// StepUpAfter is the number of consecutive healthy tier decisions
	// required before stepping one tier up (default 3), and StepUpHold the
	// minimum time since both the last tier change and the last observed
	// budget miss (default max(4×SLO, 100ms)). Stepping down is always
	// immediate.
	StepUpAfter int
	StepUpHold  time.Duration

	// Now is the clock (default time.Now) — injectable so the hysteresis
	// tests are deterministic.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.StageBatch < 1 {
		c.StageBatch = 1
	}
	if c.Freq < 1 {
		c.Freq = 1
	}
	if c.BaseMaxBatch <= 0 {
		c.BaseMaxBatch = 64
	}
	if c.MaxBatchCap <= 0 {
		c.MaxBatchCap = 4 * c.BaseMaxBatch
		if c.MaxBatchCap < 256 {
			c.MaxBatchCap = 256
		}
	}
	if c.MaxBatchCap < c.BaseMaxBatch {
		c.MaxBatchCap = c.BaseMaxBatch
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.Safety <= 0 || c.Safety > 1 {
		c.Safety = 0.8
	}
	if c.StepUpAfter < 1 {
		c.StepUpAfter = 3
	}
	if c.StepUpHold <= 0 {
		c.StepUpHold = 4 * c.SLO
		if c.StepUpHold < 100*time.Millisecond {
			c.StepUpHold = 100 * time.Millisecond
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// tier is one rung of the degradation ladder. Rung 0 is the static
// configuration (no overrides at all); higher rungs trade accuracy headroom
// for latency.
type tier struct {
	name  string
	early core.Backend // backend of stage 0
	late  core.Backend // backend of stages ≥ 1
	// override is false only on the static tier: the engine runs every
	// member on its configured backend and the schedule is untouched.
	override bool
	// jumpAfter > 0 fuses the remaining committee into one pass at that
	// stage ("fall back to the full committee") instead of dribbling
	// StageBatch members per stage.
	jumpAfter int
	// haltAfter ≥ 0 halts escalation after that stage index: pending
	// images are decided from the rows they have. < 0 runs the full
	// schedule.
	haltAfter int
}

// cheaper returns the next cheaper backend (f64→f32→int8; int8 is the
// floor).
func cheaper(b core.Backend) core.Backend {
	switch b {
	case core.BackendF64:
		return core.BackendF32
	case core.BackendF32:
		return core.BackendInt8
	}
	return core.BackendInt8
}

// buildTiers derives the ladder from the configured base backends: first
// degrade the early backend toward int8 at full depth (cheapest accuracy
// loss — escalation stages still run at configured precision when early
// confidence is below Thr_Conf), then fuse escalation into one
// full-committee pass at a degraded late backend, then cap the depth.
func buildTiers(baseEarly, baseLate core.Backend) []tier {
	ts := []tier{{name: "static", early: baseEarly, late: baseLate, haltAfter: -1}}
	add := func(t tier) {
		last := ts[len(ts)-1]
		if t.early == last.early && t.late == last.late && t.jumpAfter == last.jumpAfter &&
			t.haltAfter == last.haltAfter && t.override == last.override {
			return
		}
		ts = append(ts, t)
	}
	for e := baseEarly; e != core.BackendInt8; {
		e = cheaper(e)
		add(tier{name: "early-" + e.String(), early: e, late: baseLate, override: true, haltAfter: -1})
	}
	add(tier{
		name:  "fused-" + cheaper(baseLate).String(),
		early: core.BackendInt8, late: cheaper(baseLate),
		override: true, jumpAfter: 1, haltAfter: -1,
	})
	add(tier{name: "shallow", early: core.BackendInt8, late: core.BackendInt8, override: true, jumpAfter: 1, haltAfter: 1})
	add(tier{name: "floor", early: core.BackendInt8, late: core.BackendInt8, override: true, haltAfter: 0})
	return ts
}

// Controller is the runtime cascade controller. It is safe for concurrent
// use: every mutable field is atomic, so NextStage/ObserveStage (engine
// goroutines), PlanBatch/ObserveQueueWait (batcher goroutine),
// ObserveRequest (handler goroutines) and Snapshot (metrics scrapes) may
// interleave freely.
type Controller struct {
	cfg   Config
	tiers []tier

	costs costTable
	surv  [maxStages]ewma // fraction of the batch still pending entering stage k

	queue      atomic.Int64 // live admission-queue depth (server-fed)
	tierIdx    atomic.Int32
	healthy    atomic.Int32 // consecutive healthy decisions toward a step up
	lastChange atomic.Int64 // unix nanos of the last tier change
	lastMiss   atomic.Int64 // unix nanos of the last observed budget miss
	lastDecide atomic.Int64 // unix nanos of the previous stage-0 tier decision
	lastUp     atomic.Int64 // unix nanos of the last step up
	upHold     atomic.Int64 // current step-up hold (nanos); backs off on failed probes

	lastDepth    atomic.Int64 // members activated through the last observed stage
	lastMaxBatch atomic.Int64 // last planned max batch

	queueWait ewma // EWMA of observed queue wait (µs); a tier-decision signal and exported

	items     atomic.Uint64 // queue items dispatched (ObserveQueueWait calls)
	lastItems atomic.Uint64 // items counted through the previous tier decision
	itemRate  ewma          // EWMA of the serving rate (items per µs)

	requests     atomic.Uint64
	budgetMisses atomic.Uint64
	escalations  atomic.Uint64
	batches      atomic.Uint64
	stepDowns    atomic.Uint64
	stepUps      atomic.Uint64
}

// New builds a controller. SLO and the system shape are required.
func New(cfg Config) (*Controller, error) {
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("policy: SLO must be positive, got %v", cfg.SLO)
	}
	if cfg.Members < 1 {
		return nil, fmt.Errorf("policy: Members must be ≥ 1, got %d", cfg.Members)
	}
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, tiers: buildTiers(cfg.BaseEarly, cfg.BaseLate)}
	c.lastMaxBatch.Store(int64(cfg.BaseMaxBatch))
	c.upHold.Store(int64(cfg.StepUpHold))
	return c, nil
}

// initialChunk is the size of RADE's stage 0 (max(Thr_Freq, 2), clamped to
// the committee).
func (c *Controller) initialChunk() int {
	ini := c.cfg.Freq
	if ini < 2 {
		ini = 2
	}
	if ini > c.cfg.Members {
		ini = c.cfg.Members
	}
	return ini
}

// NextStage implements core.StagePolicy: at stage 0 it (re)decides the
// tier from the cost model and queue signal, then shapes the stage
// according to the chosen tier. On the static tier the returned decision
// is exactly the default schedule, so the batch stays clean (cacheable).
func (c *Controller) NextStage(req core.StageRequest) core.StageDecision {
	ti := int(c.tierIdx.Load())
	if req.Stage == 0 {
		ti = c.decideTier(req)
		c.batches.Add(1)
	}
	t := c.tiers[ti]
	dec := core.StageDecision{End: req.DefaultEnd}
	if req.Stage > 0 {
		if t.haltAfter >= 0 && req.Stage > t.haltAfter {
			return core.StageDecision{Halt: true}
		}
		if t.jumpAfter > 0 && req.Stage >= t.jumpAfter {
			dec.End = req.Members
		}
	}
	if t.override {
		if req.Stage == 0 {
			dec.Backend = t.early
		} else {
			dec.Backend = t.late
		}
		dec.BackendSet = true
	}
	return dec
}

// ObserveStage implements core.StagePolicy: it folds the measured stage
// latency into the cost model, updates the survival estimate the batch-time
// predictor uses, and counts escalation stages.
func (c *Controller) ObserveStage(req core.StageRequest, dec core.StageDecision, elapsed time.Duration) {
	members := dec.End - req.Active
	if req.Pending <= 0 || members <= 0 {
		return
	}
	be := c.cfg.BaseLate
	if req.Stage == 0 {
		be = c.cfg.BaseEarly
	}
	if dec.BackendSet {
		be = dec.Backend
	}
	unit := float64(elapsed.Microseconds()) / float64(req.Pending*members)
	c.costs.observe(req.Stage, int(be), sizeBucket(req.BatchSize), unit, c.cfg.Alpha)
	if req.Stage < maxStages && req.BatchSize > 0 {
		c.surv[req.Stage].observe(float64(req.Pending)/float64(req.BatchSize), c.cfg.Alpha)
	}
	if req.Stage > 0 {
		c.escalations.Add(1)
	}
	c.lastDepth.Store(int64(dec.End))
}

// Descriptor implements core.StagePolicy. It is folded into the cache
// fingerprint; the engine's refusal to store degraded batches is what
// actually guarantees reference-only cache contents, so the descriptor
// only needs to separate differently configured controllers.
func (c *Controller) Descriptor() string {
	names := make([]string, len(c.tiers))
	for i, t := range c.tiers {
		names[i] = t.name
	}
	return fmt.Sprintf("slo=%s;n=%d;freq=%d;sb=%d;base=%s/%s;tiers=%s",
		c.cfg.SLO, c.cfg.Members, c.cfg.Freq, c.cfg.StageBatch,
		c.cfg.BaseEarly, c.cfg.BaseLate, strings.Join(names, ","))
}

// estimate predicts the wall time (µs) one batch of B images takes at tier
// ti, walking the tier's schedule with measured per-stage costs and
// survival ratios. known reports whether any stage had measured data —
// until the first observations land, estimates are optimistic (zero) so a
// cold controller starts at the static tier and learns from there.
func (c *Controller) estimate(ti, b int) (micros float64, known bool) {
	if b < 1 {
		b = 1
	}
	t := c.tiers[ti]
	n := c.cfg.Members
	bucket := sizeBucket(b)
	active := 0
	for k := 0; active < n; k++ {
		if k > 0 && t.haltAfter >= 0 && k > t.haltAfter {
			break
		}
		end := c.initialChunk()
		if k > 0 {
			end = active + c.cfg.StageBatch
			if t.jumpAfter > 0 && k >= t.jumpAfter {
				end = n
			}
		}
		if end > n {
			end = n
		}
		be := t.late
		if k == 0 {
			be = t.early
		}
		surv := 1.0
		if k > 0 {
			surv = 0.5 // prior: half the batch escalates past each stage
			if k < maxStages {
				if v, ok := c.surv[k].load(); ok {
					surv = v
				}
			}
		}
		if unit, ok := c.costs.lookup(k, int(be), bucket); ok {
			micros += surv * float64(b) * float64(end-active) * unit
			known = true
		}
		active = end
	}
	return micros, known
}

// decideTier picks the highest-accuracy tier whose predicted residence
// time — queued batches ahead plus this batch — fits Safety × SLO, with
// one-way hysteresis: steps down land immediately, steps up require
// StepUpAfter consecutive healthy decisions and StepUpHold since the last
// change, and move one rung at a time.
func (c *Controller) decideTier(req core.StageRequest) int {
	b := req.BatchSize
	if b < 1 {
		b = 1
	}
	q := int(c.queue.Load())
	if q < 0 {
		q = 0
	}
	budget := c.cfg.Safety * float64(c.cfg.SLO.Microseconds())
	if !req.Deadline.IsZero() {
		// A tighter request deadline shrinks this batch's budget; a looser
		// one never relaxes the SLO.
		if head := float64(req.Deadline.Sub(c.cfg.Now()).Microseconds()) * c.cfg.Safety; head < budget {
			budget = head
		}
	}
	best := len(c.tiers) - 1
	for ti := range c.tiers {
		est, known := c.estimate(ti, b)
		if !known {
			best = ti // no data yet: optimistic, stay high
			break
		}
		ahead := float64((q + b - 1) / b) // queued batches ahead of this one
		if est*(1+ahead) <= budget {
			best = ti
			break
		}
	}

	cur := int(c.tierIdx.Load())
	// The estimate above judges one batch's residence — it cannot see
	// sustainability. A tier whose every batch fits the budget can still
	// serve images slower than they arrive; the queue then grows slowly
	// until the tail blows the SLO long after the model said "fits". Two
	// observed signals close that loop:
	//
	//   - a budget miss since the previous tier decision (the p99 signal
	//     itself) applies one rung of downward pressure, and
	//   - a queue-wait EWMA above half the budget means the backlog is
	//     already eating the headroom — same pressure, but it fires
	//     before latencies actually miss.
	//
	// Step-ups additionally require a quiet queue (wait under a quarter of
	// the budget), so the controller does not climb back into a tier the
	// arrival rate has already proven unsustainable.
	now := c.cfg.Now().UnixNano()
	prev := c.lastDecide.Swap(now)
	if dt := float64(now-prev) / 1e3; dt > 100 { // µs between decisions
		n := c.items.Load()
		if last := c.lastItems.Swap(n); n >= last {
			c.itemRate.observe(float64(n-last)/dt, c.cfg.Alpha)
		}
	}
	pressure := c.lastMiss.Load() > prev
	wait, waitKnown := c.queueWait.load()
	if waitKnown && wait > 0.5*budget {
		pressure = true
	}
	if pressure && best <= cur && cur < len(c.tiers)-1 {
		best = cur + 1
	}
	if best < cur {
		if waitKnown && wait > 0.25*budget {
			best = cur
		} else if estUp, known := c.estimate(cur-1, b); known && estUp > 0 {
			// Throughput gate: the tier above must have modeled headroom
			// over the measured serving rate, else the step up is a probe
			// into a tier the load has already outgrown — the backlog it
			// builds before the controller steps back down is pure tail
			// latency.
			if rate, ok := c.itemRate.load(); ok && float64(b)/estUp < 1.2*rate {
				best = cur
			}
		}
	}
	// The step-up hold backs off exponentially on failed probes (a step
	// down landing shortly after a step up) and decays back to the
	// configured base once the controller has been stable and miss-free —
	// without it the controller re-probes an unsustainable tier every few
	// hundred milliseconds at a load edge, and every probe's backlog
	// excursion lands in the served tail.
	hold := c.upHold.Load()
	if base := int64(c.cfg.StepUpHold); hold > base &&
		now-c.lastChange.Load() > 3*hold && now-c.lastMiss.Load() > 3*hold {
		hold /= 2
		if hold < base {
			hold = base
		}
		c.upHold.Store(hold)
	}

	switch {
	case best > cur:
		if lu := c.lastUp.Load(); lu != 0 && now-lu < 3*hold {
			next := 2 * hold
			if cap := 32 * int64(c.cfg.StepUpHold); next > cap {
				next = cap
			}
			c.upHold.Store(next)
		}
		c.tierIdx.Store(int32(best))
		c.healthy.Store(0)
		c.lastChange.Store(now)
		c.stepDowns.Add(1)
		return best
	case best < cur:
		h := c.healthy.Add(1)
		// Two holds gate a step up: the (backed-off) hold since the last
		// tier change, and the base hold since the last *observed* budget
		// miss. The second matters under sustained overload, where the
		// estimate looks healthy the moment the queue drains into a batch
		// while served requests are still blowing the SLO — stepping up
		// on the estimate alone makes the controller oscillate instead of
		// settling at the tier the load needs.
		held := now-c.lastChange.Load() >= hold &&
			now-c.lastMiss.Load() >= int64(c.cfg.StepUpHold)
		if int(h) >= c.cfg.StepUpAfter && held {
			c.tierIdx.Store(int32(cur - 1))
			c.healthy.Store(0)
			c.lastChange.Store(now)
			c.lastUp.Store(now)
			c.stepUps.Add(1)
			return cur - 1
		}
		return cur
	default:
		c.healthy.Store(0)
		return cur
	}
}

// PlanBatch picks the next batch cap from the live queue depth: it grows
// with the backlog up to MaxBatchCap so drain throughput rises with load.
// Called by the server's batcher before each collect; also records the
// queue depth for tier decisions.
func (c *Controller) PlanBatch(queueDepth int) (maxBatch int) {
	queueDepth = max(queueDepth, 0)
	c.queue.Store(int64(queueDepth))
	maxBatch = min(max(c.cfg.BaseMaxBatch, queueDepth), c.cfg.MaxBatchCap)
	c.lastMaxBatch.Store(int64(maxBatch))
	return maxBatch
}

// SetQueueDepth records the admission-queue depth outside a batch plan
// (e.g. on enqueue), keeping tier decisions fresh between collects.
func (c *Controller) SetQueueDepth(depth int) {
	if depth < 0 {
		depth = 0
	}
	c.queue.Store(int64(depth))
}

// ObserveQueueWait records how long one item sat in the admission queue
// before dispatch. The EWMA is both exported in the snapshot and used as a
// congestion signal by decideTier — rising queue wait is how an
// unsustainable tier shows up before latencies blow the budget (the
// histogram lives in the server's telemetry).
func (c *Controller) ObserveQueueWait(d time.Duration) {
	c.items.Add(1)
	c.queueWait.observe(float64(d.Microseconds()), c.cfg.Alpha)
}

// ObserveRequest records one served request's end-to-end latency and counts
// it against the budget. A miss also stamps the health clock that holds back
// step-ups (see decideTier).
func (c *Controller) ObserveRequest(latency time.Duration) {
	c.requests.Add(1)
	if latency > c.cfg.SLO {
		c.budgetMisses.Add(1)
		c.lastMiss.Store(c.cfg.Now().UnixNano())
	}
}

// StageCost is one exported cell of the cost model: the bucket-aggregated
// EWMA per-(image·member) stage latency.
type StageCost struct {
	Stage   int
	Backend string
	Micros  float64
}

// Snapshot is an atomic view of the controller state for telemetry. Fields
// are individually atomic (not transactionally consistent), which is all a
// gauge export needs.
type Snapshot struct {
	SLO          time.Duration
	Tier         int
	TierName     string
	Tiers        int
	StageDepth   int    // members activated through the last observed stage
	EarlyBackend string // stage-0 backend of the current tier
	LateBackend  string // escalation backend of the current tier
	MaxBatch     int    // last planned batch cap
	QueueDepth   int
	QueueWait    time.Duration // EWMA of observed queue wait
	Requests     uint64
	BudgetMisses uint64
	Escalations  uint64
	Batches      uint64
	StepDowns    uint64
	StepUps      uint64
	StageCosts   []StageCost
}

// Snapshot exports the controller state.
func (c *Controller) Snapshot() Snapshot {
	ti := int(c.tierIdx.Load())
	t := c.tiers[ti]
	s := Snapshot{
		SLO:          c.cfg.SLO,
		Tier:         ti,
		TierName:     t.name,
		Tiers:        len(c.tiers),
		StageDepth:   int(c.lastDepth.Load()),
		EarlyBackend: t.early.String(),
		LateBackend:  t.late.String(),
		MaxBatch:     int(c.lastMaxBatch.Load()),
		QueueDepth:   int(c.queue.Load()),
		Requests:     c.requests.Load(),
		BudgetMisses: c.budgetMisses.Load(),
		Escalations:  c.escalations.Load(),
		Batches:      c.batches.Load(),
		StepDowns:    c.stepDowns.Load(),
		StepUps:      c.stepUps.Load(),
	}
	if w, ok := c.queueWait.load(); ok {
		s.QueueWait = time.Duration(w) * time.Microsecond
	}
	for st := 0; st < maxStages; st++ {
		for b := 0; b < numBackends; b++ {
			if v, ok := c.costs.aggregated(st, b); ok {
				s.StageCosts = append(s.StageCosts, StageCost{Stage: st, Backend: core.Backend(b).String(), Micros: v})
			}
		}
	}
	return s
}

// Tier reports the current tier index and name (tests and logs).
func (c *Controller) Tier() (int, string) {
	ti := int(c.tierIdx.Load())
	return ti, c.tiers[ti].name
}
