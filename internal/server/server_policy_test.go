package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// fakePolicy is an instrumented Policy that returns a fixed batch cap, so
// the tests can verify the batcher consults it per batch and feeds the
// observation hooks back.
type fakePolicy struct {
	max int

	plans     atomic.Int64
	waits     atomic.Int64
	requests  atomic.Int64
	lastDepth atomic.Int64
}

func (p *fakePolicy) PlanBatch(queueDepth int) int {
	p.plans.Add(1)
	p.lastDepth.Store(int64(queueDepth))
	return p.max
}

func (p *fakePolicy) ObserveQueueWait(time.Duration) { p.waits.Add(1) }

func (p *fakePolicy) ObserveRequest(time.Duration) { p.requests.Add(1) }

func (p *fakePolicy) Snapshot() policy.Snapshot {
	return policy.Snapshot{
		Tier:         3,
		TierName:     "fused-f32",
		EarlyBackend: "int8",
		LateBackend:  "f32",
		MaxBatch:     p.max,
		BudgetMisses: 7,
		Escalations:  11,
		StageCosts:   []policy.StageCost{{Stage: 0, Backend: "int8", Micros: 1.5}},
	}
}

// TestPolicyShapesBatches: with a policy forcing maxBatch=2, the batcher
// must never hand the backend more than 2 images even though the
// static config would allow 64, must call PlanBatch per batch, and must feed
// queue waits and request latencies back.
func TestPolicyShapesBatches(t *testing.T) {
	fb := newFakeBackend()
	fb.delayNS.Store(int64(time.Millisecond)) // let the queue build between dispatches
	pol := &fakePolicy{max: 2}
	_, ts := startServer(t, Config{
		Backend:    fb,
		MaxBatch:   64,
		QueueDepth: 256,
		Policy:     pol,
	})

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			im := testImage(i)
			resp, _ := postJSON(t, ts.URL, classifyRequest{
				Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: im.Pixels},
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := fb.maxBatch.Load(); got > 2 {
		t.Errorf("policy maxBatch=2 but the backend saw a batch of %d", got)
	}
	if pol.plans.Load() == 0 {
		t.Error("PlanBatch was never consulted")
	}
	if got := pol.waits.Load(); got != n {
		t.Errorf("ObserveQueueWait called %d times, want %d", got, n)
	}
	if got := pol.requests.Load(); got != n {
		t.Errorf("ObserveRequest called %d times, want %d", got, n)
	}

	// The policy snapshot must be mirrored into the pgmr_policy_* series,
	// and every dispatched item must land in the queue-wait histogram.
	exp := scrape(t, ts.URL)
	for series, want := range map[string]int{
		"pgmr_policy_tier":                                    3,
		"pgmr_policy_max_batch":                               2,
		"pgmr_policy_budget_misses":                           7,
		"pgmr_policy_escalations":                             11,
		`pgmr_policy_backend{backend="int8",role="early"}`:    1,
		`pgmr_policy_backend{backend="f32",role="late"}`:      1,
		`pgmr_policy_stage_cost_ns{backend="int8",stage="0"}`: 1500,
		"pgmr_queue_wait_seconds_count":                       n,
	} {
		if got := metricValue(t, exp, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// TestPolicyControllerEndToEnd wires a real policy.Controller through the
// server: with a generous SLO and light load the controller must stay on the
// static tier, count the requests it observed, and keep serving correctly.
func TestPolicyControllerEndToEnd(t *testing.T) {
	fb := newFakeBackend()
	ctl, err := policy.New(policy.Config{
		SLO: 5 * time.Second, Members: 4, Freq: 2, StageBatch: 1,
		BaseMaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Backend: fb, Policy: ctl})

	for i := 0; i < 5; i++ {
		im := testImage(i)
		resp, _ := postJSON(t, ts.URL, classifyRequest{
			Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: im.Pixels},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	sn := ctl.Snapshot()
	if sn.Tier != 0 || sn.TierName != "static" {
		t.Errorf("unloaded controller on tier %d (%s), want 0 (static)", sn.Tier, sn.TierName)
	}
	if sn.Requests != 5 {
		t.Errorf("controller observed %d requests, want 5", sn.Requests)
	}
	if sn.BudgetMisses != 0 {
		t.Errorf("controller counted %d budget misses under a 5s SLO", sn.BudgetMisses)
	}
	if exp := scrape(t, ts.URL); !strings.Contains(exp, "pgmr_policy_tier 0") {
		t.Error("metrics exposition is missing pgmr_policy_tier")
	}
}

// TestNilPolicyRegistersNoDynamicSeries: without a policy the lazily
// registered per-backend and per-stage series must not appear.
func TestNilPolicyRegistersNoDynamicSeries(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb})
	im := testImage(1)
	resp, _ := postJSON(t, ts.URL, classifyRequest{
		Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: im.Pixels},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	exp := scrape(t, ts.URL)
	for _, name := range []string{"pgmr_policy_backend{", "pgmr_policy_stage_cost_ns{"} {
		if strings.Contains(exp, name) {
			t.Errorf("nil-policy exposition contains %s series", name)
		}
	}
	if got := metricValue(t, exp, "pgmr_queue_wait_seconds_count"); got != 1 {
		t.Errorf("pgmr_queue_wait_seconds_count = %d, want 1", got)
	}
}
