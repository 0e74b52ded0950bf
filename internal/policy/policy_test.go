package policy

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeClock is the injectable deterministic clock of the hysteresis tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// testController builds a 4-member f64/f64 controller on a fake clock.
func testController(t *testing.T, slo time.Duration, clk *fakeClock) *Controller {
	t.Helper()
	c, err := New(Config{
		SLO: slo, Members: 4, Freq: 2, StageBatch: 1,
		BaseEarly: core.BackendF64, BaseLate: core.BackendF64,
		BaseMaxBatch: 64, StepUpAfter: 3, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// seedCosts feeds the controller measured stage latencies: stage 0 costs
// 500µs per image·member on f64, stage 1 500µs, with half the batch
// escalating — so one 8-image batch on the static tier is predicted at
// 8·2·500 + 0.5·8·1·500 = 10ms.
func seedCosts(c *Controller) {
	c.ObserveStage(
		core.StageRequest{Stage: 0, Active: 0, Members: 4, Pending: 8, BatchSize: 8, DefaultEnd: 2},
		core.StageDecision{End: 2}, 8*time.Millisecond)
	c.ObserveStage(
		core.StageRequest{Stage: 1, Active: 2, Members: 4, Pending: 4, BatchSize: 8, DefaultEnd: 3},
		core.StageDecision{End: 3}, 2*time.Millisecond)
}

func stage0(batch int) core.StageRequest {
	return core.StageRequest{Stage: 0, Active: 0, Members: 4, Pending: batch, BatchSize: batch, DefaultEnd: 2}
}

func stage1(batch int) core.StageRequest {
	return core.StageRequest{Stage: 1, Active: 2, Members: 4, Pending: batch / 2, BatchSize: batch, DefaultEnd: 3}
}

func TestBuildTiersLadder(t *testing.T) {
	names := func(ts []tier) string {
		ns := make([]string, len(ts))
		for i, tt := range ts {
			ns[i] = tt.name
		}
		return strings.Join(ns, ",")
	}
	full := buildTiers(core.BackendF64, core.BackendF64)
	if got, want := names(full), "static,early-f32,early-int8,fused-f32,shallow,floor"; got != want {
		t.Errorf("f64/f64 ladder = %s; want %s", got, want)
	}
	if full[0].override {
		t.Error("static tier must not override backends")
	}
	// A system already on int8-early skips the early-degradation rungs.
	quant := buildTiers(core.BackendInt8, core.BackendF64)
	if got, want := names(quant), "static,fused-f32,shallow,floor"; got != want {
		t.Errorf("int8/f64 ladder = %s; want %s", got, want)
	}
	for _, ts := range [][]tier{full, quant} {
		last := ts[len(ts)-1]
		if last.haltAfter != 0 || last.early != core.BackendInt8 {
			t.Errorf("ladder floor = %+v; want int8, halt after stage 0", last)
		}
	}
}

// TestColdControllerIsStatic: with no cost observations the controller must
// return exactly the default schedule — a cold start is bit-identical to a
// policy-free system.
func TestColdControllerIsStatic(t *testing.T) {
	c := testController(t, 10*time.Millisecond, newFakeClock())
	c.SetQueueDepth(10_000) // even saturated: no data, no degradation
	for _, req := range []core.StageRequest{stage0(8), stage1(8)} {
		dec := c.NextStage(req)
		if dec.End != req.DefaultEnd || dec.Halt || dec.BackendSet {
			t.Errorf("cold NextStage(stage %d) = %+v; want default schedule", req.Stage, dec)
		}
	}
	if ti, name := c.Tier(); ti != 0 || name != "static" {
		t.Errorf("cold tier = %d (%s); want 0 (static)", ti, name)
	}
}

// TestSaturatedQueueStepsDown is the satellite's deterministic fake-clock
// test: with measured costs that blow the budget under a deep queue, one
// tier decision must land on the floor tier — int8 backend, escalation
// halted after the initial stage.
func TestSaturatedQueueStepsDown(t *testing.T) {
	clk := newFakeClock()
	c := testController(t, 10*time.Millisecond, clk)
	seedCosts(c)
	c.SetQueueDepth(1000)

	dec := c.NextStage(stage0(8))
	if !dec.BackendSet || dec.Backend != core.BackendInt8 {
		t.Errorf("saturated stage-0 decision = %+v; want int8 override", dec)
	}
	if ti, name := c.Tier(); name != "floor" {
		t.Errorf("saturated tier = %d (%s); want floor", ti, name)
	}
	if dec := c.NextStage(stage1(8)); !dec.Halt {
		t.Errorf("saturated stage-1 decision = %+v; want halt (shallow stages)", dec)
	}
	if s := c.Snapshot(); s.StepDowns != 1 {
		t.Errorf("StepDowns = %d; want 1", s.StepDowns)
	}
}

// TestIdleQueueStepsBackUp: after a saturation-driven step down, an idle
// queue walks the controller back to the static tier — one rung at a time,
// and only after the healthy streak and hold time are both met.
func TestIdleQueueStepsBackUp(t *testing.T) {
	clk := newFakeClock()
	// 50ms SLO: the static tier fits when idle (predicted 10ms ≤ 40ms
	// budget), so recovery has somewhere to go.
	c := testController(t, 50*time.Millisecond, clk)
	seedCosts(c)

	c.SetQueueDepth(1000)
	c.NextStage(stage0(8))
	downTier, _ := c.Tier()
	if downTier == 0 {
		t.Fatal("saturation did not step the controller down")
	}

	// Idle queue: each decision is healthy; the clock advances past the
	// hold between decisions, so every StepUpAfter-th decision climbs one
	// rung — never more.
	c.SetQueueDepth(0)
	prev := downTier
	for i := 0; i < 60; i++ {
		clk.advance(250 * time.Millisecond)
		if dec := c.NextStage(stage0(8)); dec.Halt {
			t.Fatalf("idle decision %d still halting", i)
		}
		ti, _ := c.Tier()
		if ti > prev {
			t.Fatalf("idle recovery stepped down (%d → %d)", prev, ti)
		}
		if prev-ti > 1 {
			t.Fatalf("recovery jumped %d rungs at once", prev-ti)
		}
		prev = ti
		if ti == 0 {
			break
		}
	}
	if ti, name := c.Tier(); ti != 0 {
		t.Fatalf("controller never recovered to static tier (at %d %s)", ti, name)
	}
	// Back at tier 0 the schedule is the pure default again.
	if dec := c.NextStage(stage0(8)); dec.End != 2 || dec.BackendSet || dec.Halt {
		t.Errorf("recovered decision = %+v; want default schedule", dec)
	}
	if s := c.Snapshot(); s.StepUps != uint64(downTier) {
		t.Errorf("StepUps = %d; want %d (one per rung)", s.StepUps, downTier)
	}
}

// TestStepUpRequiresHold: a healthy streak with a frozen clock must NOT
// step up — the hold time is the anti-oscillation guard.
func TestStepUpRequiresHold(t *testing.T) {
	clk := newFakeClock()
	c := testController(t, 50*time.Millisecond, clk)
	seedCosts(c)
	c.SetQueueDepth(1000)
	c.NextStage(stage0(8))
	down, _ := c.Tier()

	c.SetQueueDepth(0)
	clk.advance(time.Millisecond) // within StepUpHold of the step down
	for i := 0; i < 20; i++ {
		c.NextStage(stage0(8))
	}
	if ti, _ := c.Tier(); ti != down {
		t.Errorf("tier stepped up to %d during the hold window (was %d)", ti, down)
	}
}

// TestPlanBatchGrowsWithBacklog: the batch cap follows the queue depth from
// BaseMaxBatch up to MaxBatchCap, and the snapshot mirrors the last plan.
func TestPlanBatchGrowsWithBacklog(t *testing.T) {
	c := testController(t, 10*time.Millisecond, newFakeClock())
	for _, tc := range []struct{ depth, maxBatch int }{
		{-3, 64},
		{0, 64},
		{32, 64},
		{64, 64},
		{100, 100},
		{10_000, 256}, // MaxBatchCap
	} {
		if m := c.PlanBatch(tc.depth); m != tc.maxBatch {
			t.Errorf("PlanBatch(%d) = %d; want %d", tc.depth, m, tc.maxBatch)
		}
	}
	if s := c.Snapshot(); s.MaxBatch != 256 || s.QueueDepth != 10_000 {
		t.Errorf("snapshot after plans = max %d depth %d", s.MaxBatch, s.QueueDepth)
	}
}

func TestObserveRequestCountsBudgetMisses(t *testing.T) {
	c := testController(t, 10*time.Millisecond, newFakeClock())
	c.ObserveRequest(5 * time.Millisecond)
	c.ObserveRequest(10 * time.Millisecond)
	c.ObserveRequest(15 * time.Millisecond)
	s := c.Snapshot()
	if s.Requests != 3 || s.BudgetMisses != 1 {
		t.Errorf("requests=%d misses=%d; want 3, 1", s.Requests, s.BudgetMisses)
	}
}

func TestDescriptorSeparatesConfigs(t *testing.T) {
	mk := func(slo time.Duration, early core.Backend) string {
		c, err := New(Config{SLO: slo, Members: 4, Freq: 2, BaseEarly: early, BaseLate: core.BackendF64})
		if err != nil {
			t.Fatal(err)
		}
		return c.Descriptor()
	}
	a := mk(10*time.Millisecond, core.BackendF64)
	if b := mk(20*time.Millisecond, core.BackendF64); a == b {
		t.Error("descriptors identical across different SLOs")
	}
	if b := mk(10*time.Millisecond, core.BackendInt8); a == b {
		t.Error("descriptors identical across different base backends")
	}
	if a != mk(10*time.Millisecond, core.BackendF64) {
		t.Error("descriptor not deterministic")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SLO: 0, Members: 4}); err == nil {
		t.Error("New accepted SLO = 0")
	}
	if _, err := New(Config{SLO: -time.Second, Members: 4}); err == nil {
		t.Error("New accepted negative SLO")
	}
	if _, err := New(Config{SLO: time.Second, Members: 0}); err == nil {
		t.Error("New accepted zero members")
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 32: 5, 64: 6, 128: 7, 4096: 7}
	for b, want := range cases {
		if got := sizeBucket(b); got != want {
			t.Errorf("sizeBucket(%d) = %d; want %d", b, got, want)
		}
	}
}

func TestCostTableFallbacks(t *testing.T) {
	var ct costTable
	if _, ok := ct.lookup(0, int(core.BackendF64), 0); ok {
		t.Error("empty table reported a cost")
	}
	ct.observe(0, int(core.BackendF64), 3, 500, 0.2)
	// Exact cell.
	if v, ok := ct.lookup(0, int(core.BackendF64), 3); !ok || v != 500 {
		t.Errorf("exact lookup = %v, %v", v, ok)
	}
	// Unmeasured bucket falls back to the stage aggregate.
	if v, ok := ct.lookup(0, int(core.BackendF64), 0); !ok || v != 500 {
		t.Errorf("bucket fallback = %v, %v", v, ok)
	}
	// Unmeasured backend scales the measured one by the prior ratios.
	v, ok := ct.lookup(0, int(core.BackendInt8), 3)
	if !ok || v >= 500 || v <= 0 {
		t.Errorf("ratio fallback = %v, %v; want measured 500 scaled down", v, ok)
	}
	// Another stage entirely unmeasured stays unknown.
	if _, ok := ct.lookup(2, int(core.BackendF64), 3); ok {
		t.Error("unmeasured stage reported a cost")
	}
}

func TestEwmaSeedAndSmoothing(t *testing.T) {
	var e ewma
	e.observe(100, 0.2)
	if v, ok := e.load(); !ok || v != 100 {
		t.Fatalf("first sample must seed: %v, %v", v, ok)
	}
	e.observe(200, 0.2)
	if v, _ := e.load(); v != 0.2*200+0.8*100 {
		t.Errorf("EWMA fold = %v; want 120", v)
	}
	e.observe(-5, 0.2) // clamped, not poisoned
	if v, _ := e.load(); v <= 0 || v > 120 {
		t.Errorf("negative sample handling = %v", v)
	}
}

// TestControllerSnapshotRace is the satellite -race hammer: engine
// observations, batcher plans, handler latencies and metric snapshots all
// pound the shared controller concurrently.
func TestControllerSnapshotRace(t *testing.T) {
	c := testController(t, 5*time.Millisecond, newFakeClock())
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // the engine
		defer wg.Done()
		for i := 0; i < iters; i++ {
			b := 1 + i%32
			dec := c.NextStage(stage0(b))
			res := dec
			if res.End < 1 {
				res.End = 2
			}
			c.ObserveStage(stage0(b), res, time.Duration(50+i%100)*time.Microsecond)
			c.ObserveStage(stage1(b), core.StageDecision{End: 3}, time.Duration(i%70)*time.Microsecond)
		}
	}()
	go func() { // the batcher
		defer wg.Done()
		for i := 0; i < iters; i++ {
			c.PlanBatch(i % 500)
			c.ObserveQueueWait(time.Duration(i%1000) * time.Microsecond)
		}
	}()
	go func() { // request handlers
		defer wg.Done()
		for i := 0; i < iters; i++ {
			c.SetQueueDepth(i % 300)
			c.ObserveRequest(time.Duration(i%20) * time.Millisecond)
		}
	}()
	go func() { // metrics scrapes
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s := c.Snapshot()
			if s.Tier < 0 || s.Tier >= s.Tiers {
				t.Error("snapshot tier out of range")
				return
			}
			c.Tier()
		}
	}()
	wg.Wait()
	if s := c.Snapshot(); s.Batches == 0 || s.Requests == 0 {
		t.Errorf("hammer recorded nothing: %+v", s)
	}
}
