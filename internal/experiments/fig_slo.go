package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	polygraph "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/telemetry"
	"repro/internal/tensor"
)

func init() {
	register("ext-slo", ExtSLO)
}

// ExtSLO is the SLO-driven adaptive cascade sweep (extension; DESIGN.md
// §12): it stands up the serving subsystem twice over the same trained
// members — once with the static configuration, once with the runtime
// policy controller armed at Context.SLO — and drives both with an
// open-loop offered-load sweep. The claim under test is the controller's
// contract: at low load its decisions agree with the static full-precision
// cascade (the controller sits on the static tier, ≥99% agreement), under
// overload it degrades the cascade (cheaper backends, fused committee,
// shallower stages, wider batches), and at an offered load between the two
// capacities its p99 comes out below the static server's. These are
// asserted as orderings, not as wall-clock values, so the verdict does not
// depend on the speed of the box; whether the absolute budget was met is
// reported per point.
func ExtSLO(ctx *Context) (*Result, error) {
	if ctx.SLO <= 0 {
		return nil, fmt.Errorf("ext-slo: Context.SLO must be positive, got %v", ctx.SLO)
	}
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

	// The serving batch cap both modes share; the controller adapts
	// around it, the static server is stuck with it. Requests carry 8
	// images each so the cascade — not per-request HTTP/JSON overhead —
	// is what saturates first; on a small machine single-image requests
	// bottleneck on the transport, which no cascade tier can fix.
	const (
		maxBatch     = 32
		queueDepth   = 512
		imagesPerReq = 8
	)

	build := func() (*core.System, error) {
		sys, err := core.BuildSystem(ctx.Zoo, b, design.Variants)
		if err != nil {
			return nil, err
		}
		sys.Workers = ctx.Workers
		return sys, nil
	}
	sysStatic, err := build()
	if err != nil {
		return nil, err
	}
	sysAdapt, err := build()
	if err != nil {
		return nil, err
	}
	calib := make([]*tensor.T, 0, 16)
	for i := 0; i < len(ds.Val) && i < 16; i++ {
		calib = append(calib, ds.Val[i].X)
	}
	if err := sysAdapt.PrepareAdaptive(calib); err != nil {
		return nil, err
	}
	ctl, err := policy.New(policy.Config{
		SLO:          ctx.SLO,
		Members:      len(sysAdapt.Members),
		Freq:         sysAdapt.Th.Freq,
		StageBatch:   sysAdapt.Batch,
		BaseEarly:    core.BackendF64,
		BaseLate:     core.BackendF64,
		BaseMaxBatch: maxBatch,
	})
	if err != nil {
		return nil, err
	}
	sysAdapt.Policy = ctl

	// Image pool from the held-out test split.
	n := len(ds.Test)
	if n > 64 {
		n = 64
	}
	images := make([]polygraph.Image, n)
	xs := make([]*tensor.T, n)
	for i := 0; i < n; i++ {
		s := ds.Test[i]
		images[i] = polygraph.Image{
			Channels: s.X.Shape[0], Height: s.X.Shape[1], Width: s.X.Shape[2],
			Pixels: s.X.Data,
		}
		xs[i] = s.X
	}

	serve := func(sys *core.System, pol server.Policy) (string, func(), error) {
		srv, err := server.New(server.Config{
			Backend:    servingBackend{sys: sys, inShape: ds.InShape},
			MaxBatch:   maxBatch,
			QueueDepth: queueDepth,
			Metrics:    telemetry.NewMetrics(len(sys.Members)),
			Policy:     pol,
		})
		if err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		stop := func() {
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Drain(dctx)
			_ = hs.Shutdown(dctx)
		}
		return "http://" + ln.Addr().String(), stop, nil
	}

	baseStatic, stopStatic, err := serve(sysStatic, nil)
	if err != nil {
		return nil, err
	}
	defer stopStatic()
	baseAdapt, stopAdapt, err := serve(sysAdapt, ctl)
	if err != nil {
		return nil, err
	}
	defer stopAdapt()

	// Closed-loop capacity probe of the static server: the sweep's load
	// points are placed relative to this, so the experiment scales with
	// the machine it runs on.
	probe, err := server.RunLoad(context.Background(), server.LoadConfig{
		URL: baseStatic, Images: images, Concurrency: 8, Requests: 120,
		ImagesPerRequest: imagesPerReq,
	})
	if err != nil {
		return nil, err
	}
	capStatic := probe.ImagesPerSec
	if capStatic < 20 {
		capStatic = 20
	}

	window := 1500 * time.Millisecond
	maxRequests := 1200
	if ctx.Profile() == dataset.Full {
		window = 3 * time.Second
		maxRequests = 5000
	}
	// Offered loads are in images/s; requests carry imagesPerReq images.
	runPoint := func(base string, imgRate float64) (*server.LoadResult, error) {
		reqRate := imgRate / imagesPerReq
		reqs := int(reqRate * window.Seconds())
		if reqs < 40 {
			reqs = 40
		}
		if reqs > maxRequests {
			reqs = maxRequests
		}
		// Judge the steady state: the first half-second of offered load is
		// warmup, covering the controller's step-down transient (and, on the
		// static side, connection setup) — both modes get the same cut.
		warmup := int(reqRate / 2)
		if warmup > reqs/2 {
			warmup = reqs / 2
		}
		return server.RunLoad(context.Background(), server.LoadConfig{
			URL: base, Images: images, Concurrency: 32, Requests: reqs, Rate: reqRate,
			ImagesPerRequest: imagesPerReq, Warmup: warmup,
		})
	}

	res := &Result{
		ID: "ext-slo", Title: fmt.Sprintf("SLO-driven adaptive cascade vs static serving under open-loop load (extension; budget %v)", ctx.SLO),
		Header: []string{"load", "mode", "img/s", "ok", "rej", "fail", "p50", "p99", "p99<=SLO", "tier"},
	}
	var points []sloPoint
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	agreement := -1.0

	runModes := func(name string, imgRate float64) error {
		for _, mode := range []string{"static", "slo"} {
			base := baseStatic
			if mode == "slo" {
				base = baseAdapt
			}
			lr, err := runPoint(base, imgRate)
			if err != nil {
				return fmt.Errorf("ext-slo: %s at %s: %w", mode, name, err)
			}
			met := lr.P99 <= ctx.SLO && lr.OK > 0
			pt := sloPoint{OK: lr.OK, P99Ms: ms(lr.P99), MetBudget: met}
			tierCell := "-"
			if mode == "slo" {
				sn := ctl.Snapshot()
				pt.Tier, pt.TierName = sn.Tier, sn.TierName
				tierCell = fmt.Sprintf("%d (%s)", sn.Tier, sn.TierName)
			}
			points = append(points, pt)
			res.AddRow(name, mode, fmt.Sprintf("%.0f", imgRate),
				fmt.Sprint(lr.OK), fmt.Sprint(lr.Rejected), fmt.Sprint(lr.Failed),
				lr.P50.Round(10*time.Microsecond).String(), lr.P99.Round(10*time.Microsecond).String(),
				fmt.Sprint(met), tierCell)
		}
		return nil
	}

	// Low-load point first, then the decision-agreement check — measured
	// while the controller is still in its low-load state (acceptance
	// floor: 99%).
	if err := runModes("low", 0.5*capStatic); err != nil {
		return nil, err
	}
	// The server is idle again, but the controller still holds the depth of
	// the last batch it planned; a stale backlog of two requests is enough
	// to make it price the direct calls below as queued work and degrade.
	ctl.SetQueueDepth(0)
	agreement, err = decisionAgreement(sysStatic, sysAdapt, xs)
	if err != nil {
		return nil, err
	}

	// Probe the degraded ceiling: sustained closed-loop overload drives the
	// controller to its cheapest sustainable tier, and the achieved
	// throughput is what the adaptive server can serve at most. The
	// interesting offered load — where the controller can win — sits
	// between the two capacities; past the degraded ceiling no tier can
	// keep up and both modes saturate.
	floorReqs := int(2 * capStatic * window.Seconds() / imagesPerReq)
	if floorReqs < 200 {
		floorReqs = 200
	}
	if floorReqs > maxRequests {
		floorReqs = maxRequests
	}
	// Two probes: the first drives the controller down (its throughput
	// average is polluted by the adaptation transient and the backlog it
	// drains), the second measures the settled ceiling.
	var capFloor float64
	for i := 0; i < 2; i++ {
		floorProbe, err := server.RunLoad(context.Background(), server.LoadConfig{
			URL: baseAdapt, Images: images, Concurrency: 32, Requests: floorReqs,
			ImagesPerRequest: imagesPerReq,
		})
		if err != nil {
			return nil, err
		}
		capFloor = floorProbe.ImagesPerSec
	}
	if capFloor < capStatic {
		capFloor = capStatic
	}

	// The band point: inside (static capacity, degraded ceiling), with
	// headroom on the degraded side so queueing stays bounded. On a machine
	// whose degraded ceiling is too close to the static capacity there is
	// no band; the point is still measured (and noted) just past static
	// capacity.
	band := 0.8 * capFloor
	usableBand := band >= 1.1*capStatic
	if !usableBand {
		band = 1.1 * capStatic
		res.AddNote("no usable capacity band on this machine (degraded ceiling %.0f vs static capacity %.0f img/s)", capFloor, capStatic)
	}
	if err := runModes("band", band); err != nil {
		return nil, err
	}
	bandStatic := points[len(points)-2]
	bandSLO := points[len(points)-1]
	if err := runModes("over", 2*capFloor); err != nil {
		return nil, err
	}
	overSLO := points[len(points)-1]

	res.AddNote("capacities (closed loop, %d images/request): static %.0f img/s, degraded ceiling %.0f img/s; band point offered %.0f img/s", imagesPerReq, capStatic, capFloor, band)
	res.AddNote("low-load decision agreement with the static cascade: %s (floor 99%%)", pct(agreement))
	if agreement < 0.99 {
		return nil, fmt.Errorf("ext-slo: low-load agreement %.4f below the 0.99 floor", agreement)
	}
	// The headline claim, as orderings so it holds on a box of any speed.
	// Offered twice the degraded ceiling, the controller must be holding a
	// degraded tier. And where the machine has a band between the two
	// capacities, the controller's p99 at the band point — a load the
	// static configuration cannot sustain — must be below the static
	// server's. Whether either side also landed inside the absolute budget
	// depends on the machine: the table and the note report it, the runner
	// does not assert it.
	if overSLO.Tier == 0 {
		return nil, fmt.Errorf("ext-slo: the controller stayed on the static tier at %.0f img/s, twice its degraded ceiling", 2*capFloor)
	}
	if usableBand && (bandSLO.OK == 0 || bandSLO.P99Ms >= bandStatic.P99Ms) {
		return nil, fmt.Errorf("ext-slo: band point did not demonstrate the controller win (static p99 %.1fms, slo p99 %.1fms at tier %d)",
			bandStatic.P99Ms, bandSLO.P99Ms, bandSLO.Tier)
	}
	res.AddNote("band point at %.0f img/s: -slo at tier %d (%s) p99 %.1fms (inside the %v budget: %v) vs static p99 %.1fms (inside: %v)",
		band, bandSLO.Tier, bandSLO.TierName, bandSLO.P99Ms, ctx.SLO, bandSLO.MetBudget, bandStatic.P99Ms, bandStatic.MetBudget)
	return res, nil
}

// sloPoint is what ExtSLO's assertions read back from one (mode, offered
// load) run: successful requests, the post-warmup p99 in milliseconds,
// whether it met the budget, and the controller's tier after the run
// (zero for static points).
type sloPoint struct {
	OK        int
	P99Ms     float64
	MetBudget bool
	Tier      int
	TierName  string
}

// decisionAgreement classifies the pool through both systems and returns
// the fraction of images on which (label, reliable) match. The pool goes
// through in serving-sized chunks: at low load the 2ms batcher coalesces a
// handful of images per batch, and that is the batch shape the agreement
// floor is defined over. One direct mega-batch would instead ask the
// controller a different question — "can you run the whole pool inside one
// budget?" — and it would (correctly) degrade to answer it.
func decisionAgreement(ref, sys *core.System, xs []*tensor.T) (float64, error) {
	const chunk = 8
	same, total := 0, 0
	for lo := 0; lo < len(xs); lo += chunk {
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		dref, err := ref.ClassifyBatchContext(context.Background(), xs[lo:hi])
		if err != nil {
			return 0, err
		}
		dsys, err := sys.ClassifyBatchContext(context.Background(), xs[lo:hi])
		if err != nil {
			return 0, err
		}
		for i := range dref {
			total++
			if dref[i].Label == dsys[i].Label && dref[i].Reliable == dsys[i].Reliable {
				same++
			}
		}
	}
	return float64(same) / float64(total), nil
}
