package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	polygraph "repro"
	"repro/internal/cache"
	"repro/internal/cache/persist"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/tensor"
)

// probeImages is how many pool images the replay probes work on: enough for
// the largest batch the server forms (max batch 64).
const probeImages = 64

// candidates mirrors polygraph.Build's preprocessor candidate list; the
// probe system is checked against the served decisions, so a drift between
// the two fails the run instead of skewing numbers.
var candidates = []string{"AdHist", "ConNorm", "FlipX", "FlipY", "Gamma(1.5)", "Gamma(2)", "ImAdj"}

// replay holds what the probes rebuild outside the server: the same members
// polygraph.Build serves, reachable at the core/nn level.
type replay struct {
	sys   *core.System
	zoo   *model.Zoo
	calib []*tensor.T
	xs    []*tensor.T // probe images, raw
	// activeShare[m] is the share of probe images member m ran on, and
	// preApply[m] the seconds its preprocessor takes per image.
	activeShare, preApply []float64
}

// newReplay rebuilds the served members through core.BuildSystem and fails
// if its decisions on the probe images differ from the oracle's (which the
// load phases have already checked the served answers against).
func newReplay(c runConfig, t *traffic) (*replay, error) {
	zoo := model.DefaultZoo()
	b, err := model.ByName(benchmarkName)
	if err != nil {
		return nil, err
	}
	vs := make([]model.Variant, len(candidates))
	for i, n := range candidates {
		vs[i] = model.Variant{Preproc: n}
	}
	design, err := core.GreedyDesign(zoo, b, vs, members)
	if err != nil {
		return nil, err
	}
	sys, err := core.BuildSystem(zoo, b, design.Variants)
	if err != nil {
		return nil, err
	}
	ds, err := zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	r := &replay{sys: sys, zoo: zoo}
	for i := 0; i < 16 && i < len(ds.Val); i++ {
		r.calib = append(r.calib, ds.Val[i].X)
	}
	if c.w.backend != "" {
		be, err := core.ParseBackend(c.w.backend)
		if err != nil {
			return nil, err
		}
		for i := range sys.Members {
			sys.Members[i].Backend = be
		}
		if err := sys.PrepareBackends(r.calib); err != nil {
			return nil, err
		}
	}
	for i := 0; i < probeImages; i++ {
		im := t.image(i)
		r.xs = append(r.xs, tensor.FromSlice(im.Pixels, im.Channels, im.Height, im.Width))
	}
	r.activeShare = make([]float64, members)
	for i, d := range sys.ClassifyBatch(r.xs) {
		if want := t.oracle[i]; int32(d.Label) != want.label || d.Reliable != want.reliable {
			return nil, fmt.Errorf("probe system disagrees with the served one on pool image %d: (%d,%v) vs (%d,%v)",
				i, d.Label, d.Reliable, want.label, want.reliable)
		}
		for m := 0; m < d.Activated && m < members; m++ {
			r.activeShare[m] += 1.0 / probeImages
		}
	}
	return r, nil
}

// cycle returns a function that calls fn on the probe images one after the
// other, so a probe never times one cache-warm input.
func (r *replay) cycle(fn func(x *tensor.T)) func() {
	i := 0
	return func() {
		fn(r.xs[i%len(r.xs)])
		i++
	}
}

// costs is the replayed classify path at one batch size: what one image
// costs in wall time at the serving GOMAXPROCS, and how that splits between
// the layers. The split is measured on one processor — members run in
// parallel at full width, so only there do the parts add up to the whole.
type costs struct {
	perImage float64 // seconds, root package ClassifyBatchContext, no cache
	classify float64 // seconds, core ClassifyBatchContext
	// Shares of perImage, summing to 1.
	glue, preprocess, forward, engineSelf float64
}

// costsAt replays the classify path at batch size b on the workload's own
// images, moving the batch along the probe images from call to call so no
// one composition (escalating or not) is timed alone. oracle is the
// cache-less *polygraph.System; forward is the served backend's forward
// seconds per image at a batch size.
func (r *replay) costsAt(b int, oracle *polygraph.System, t *traffic, forward func(b int) float64) costs {
	b = min(max(b, 1), probeImages)
	ctx := context.Background()
	images := make([]polygraph.Image, probeImages)
	for i := range images {
		images[i] = t.image(i)
	}
	calls := 0
	next := func() int {
		lo := calls * b % (probeImages - b + 1)
		calls++
		return lo
	}
	root := func() { lo := next(); oracle.ClassifyBatchContext(ctx, images[lo:lo+b]) }
	engine := func() { lo := next(); r.sys.ClassifyBatchContext(ctx, r.xs[lo:lo+b]) }
	c := costs{perImage: timeOp(root) / float64(b), classify: timeOp(engine) / float64(b)}

	prev := runtime.GOMAXPROCS(1)
	root1, engine1, fwd := timeOp(root)/float64(b), timeOp(engine)/float64(b), forward(b)
	runtime.GOMAXPROCS(prev)
	var pre, nets float64
	for m := range r.sys.Members {
		pre += r.preApply[m] * r.activeShare[m]
		nets += fwd * r.activeShare[m]
	}
	glue := max(0, root1-engine1)
	self := max(0, engine1-pre-nets)
	whole := glue + pre + nets + self
	c.glue, c.preprocess, c.forward, c.engineSelf = glue/whole, pre/whole, nets/whole, self/whole
	return c
}

// forwarder times one member network's batched forward per backend, the
// way core's batched engine calls it (arena reused across calls).
type forwarder struct {
	pre  []*tensor.T // preprocessed probe images
	net  *nn.Network
	n32  map[string]*nn.Net32
	a    *tensor.Arena
	a32  *tensor.Arena32
	abft *tensor.AbftStats
	// compileSeconds is the median time each reduced backend took to
	// compile (int8 includes calibration).
	compileSeconds map[string]float64
}

func newForwarder(net *nn.Network, pre, calib []*tensor.T) (*forwarder, error) {
	f := &forwarder{
		pre: pre, net: net, n32: map[string]*nn.Net32{}, compileSeconds: map[string]float64{},
		a: tensor.NewArena(), a32: tensor.NewArena32(), abft: &tensor.AbftStats{},
	}
	compilers := map[string]func() (*nn.Net32, error){
		"f32":  net.Compile32,
		"int8": func() (*nn.Net32, error) { return net.CompileInt8(calib) },
	}
	for name, compile := range compilers {
		var times []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			n32, err := compile()
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(start).Seconds())
			f.n32[name] = n32
		}
		f.compileSeconds[name] = median(times)
	}
	return f, nil
}

// run is one batched forward of the first b probe images.
func (f *forwarder) run(backend string, b int, verified bool) {
	var sink *tensor.AbftStats
	if verified {
		sink = f.abft
	}
	if backend == "f64" {
		f.a.SetAbft(sink)
		f.net.InferBatchArena(f.pre[:b], f.a)
		f.a.Reset()
		return
	}
	f.a32.SetAbft(sink)
	f.n32[backend].InferBatch(f.pre[:b], f.a32)
	f.a32.Reset()
}

// perImage is the forward's seconds per image at batch size b.
func (f *forwarder) perImage(backend string, b int) float64 {
	return timeOp(func() { f.run(backend, b, false) }) / float64(b)
}

// replayProbes times the layers' public functions outside the server, on
// the workload's own images, and fills the probe-backed per-layer metrics.
// It returns the replayed costs at the observed batch size for the budget.
func replayProbes(c runConfig, t *traffic, oracle *polygraph.System, observedBatch int, m map[string]float64) (costs, error) {
	r, err := newReplay(c, t)
	if err != nil {
		return costs{}, err
	}

	// internal/preprocess and internal/nn, on the first served member.
	for i, mem := range r.sys.Members {
		r.preApply = append(r.preApply, timeOp(r.cycle(func(x *tensor.T) { mem.Pre.Apply(x) })))
		m[fmt.Sprintf("preprocess.apply_us.m%d", i)] = r.preApply[i] * 1e6
		c.logf("preprocess.apply_us.m%d is %s", i, mem.Name)
	}
	lead := r.sys.Members[0]
	pre := make([]*tensor.T, len(r.xs))
	for i, x := range r.xs {
		pre[i] = lead.Pre.Apply(x)
	}
	calibPre := make([]*tensor.T, len(r.calib))
	for i, x := range r.calib {
		calibPre[i] = lead.Pre.Apply(x)
	}
	fw, err := newForwarder(lead.Net, pre, calibPre)
	if err != nil {
		return costs{}, err
	}
	m["nn.compile_ms.f32"] = fw.compileSeconds["f32"] * 1e3
	m["nn.compile_ms.int8"] = fw.compileSeconds["int8"] * 1e3
	for _, be := range backendNames {
		m["nn.forward_us_per_image."+be+".b1"] = fw.perImage(be, 1) * 1e6
		plain := fw.perImage(be, 32)
		m["nn.forward_us_per_image."+be+".b32"] = plain * 1e6
		m["nn.verified_overhead_share."+be+".b32"] = timeOp(func() { fw.run(be, 32, true) })/32/plain - 1
		m["nn.alloc_bytes_per_image."+be+".b32"] = allocBytes(20, func() { fw.run(be, 32, false) }) / 32
	}
	// A second topology, so a convnet-shaped tuning that hurts elsewhere
	// shows. resnet20 reads the same SynthCIFAR inputs.
	rb, err := model.ByName("resnet20")
	if err != nil {
		return costs{}, err
	}
	rnet, err := r.zoo.Network(rb, model.Variant{})
	if err != nil {
		return costs{}, err
	}
	rfw, err := newForwarder(rnet, r.xs, r.calib)
	if err != nil {
		return costs{}, err
	}
	for _, be := range backendNames {
		m["nn.resnet20.forward_us_per_image."+be+".b32"] = rfw.perImage(be, 32) * 1e6
	}

	// internal/core.
	servedBackend := "f64"
	if c.w.backend != "" {
		servedBackend = c.w.backend
	}
	forward := func(b int) float64 { return fw.perImage(servedBackend, b) }
	m["core.classify_us_per_image.b1"] = r.costsAt(1, oracle, t, forward).classify * 1e6
	b32 := r.costsAt(32, oracle, t, forward)
	m["core.classify_us_per_image.b32"] = b32.classify * 1e6
	m["core.engine_self_share.b32"] = b32.engineSelf / (b32.preprocess + b32.forward + b32.engineSelf)
	rows := make([][]float64, members)
	for i, mem := range r.sys.Members {
		rows[i] = mem.Infer(r.xs[0])
	}
	dec := core.Decide(rows, r.sys.Th)
	m["core.decide_ns"] = timeOp(func() { core.Decide(rows, r.sys.Th) }) * 1e9
	enc, err := core.EncodeDecision(dec)
	if err != nil {
		return costs{}, err
	}
	m["core.encode_decision_ns"] = timeOp(func() { core.EncodeDecision(dec) }) * 1e9
	m["core.decode_decision_ns"] = timeOp(func() { core.DecodeDecision(enc) }) * 1e9

	// internal/cache: the SHA-256 content address, then the sharded store
	// probed with ready-made keys, so hashing is not counted three times.
	fp := r.sys.ConfigFingerprint("bits=0")
	m["cache.key_hash_us"] = timeOp(r.cycle(func(x *tensor.T) { cache.ImageKey(fp, x.Shape, x.Data) })) * 1e6
	store := cache.New[core.Decision](cache.Config{}, func(core.Decision) int64 { return 64 })
	keys := make([]cache.Key, 4096)
	for i := range keys {
		keys[i] = cache.ImageKey(fp, []int{i}, nil)
	}
	k := 0
	m["cache.insert_ns"] = timeOp(func() { store.Add(keys[k%2048], dec); k++ }) * 1e9
	m["cache.probe_hit_ns"] = timeOp(func() { store.Get(keys[k%2048]); k++ }) * 1e9
	m["cache.probe_miss_ns"] = timeOp(func() { store.Get(keys[2048+k%2048]); k++ }) * 1e9

	if err := persistProbe(fp, dec, keys, m); err != nil {
		return costs{}, err
	}

	// internal/cluster: one frame the size of a forwarded convnet image
	// (request id, fingerprint, shape, float64 pixels), and the ring.
	payload := make([]byte, 8+32+16+8*len(r.xs[0].Data))
	var frame []byte
	m["cluster.frame_codec_ns"] = timeOp(func() {
		frame = cluster.AppendFrame(frame[:0], 1, payload)
		cluster.DecodeFrame(frame)
	}) * 1e9
	ring, err := cluster.NewRing([]string{"n0", "n1", "n2"}, 0)
	if err != nil {
		return costs{}, err
	}
	m["cluster.ring_owner_ns"] = timeOp(func() { ring.Owner(keys[k%len(keys)]); k++ }) * 1e9

	// internal/policy: never engaged at this load, probed so a change to it
	// has a number.
	be, _ := core.ParseBackend(c.w.backend)
	ctl, err := policy.New(policy.Config{
		SLO: 50 * time.Millisecond, Members: members, Freq: r.sys.Th.Freq, StageBatch: 1,
		BaseEarly: be, BaseLate: be, BaseWindow: 5 * time.Millisecond, BaseMaxBatch: 64,
	})
	if err != nil {
		return costs{}, err
	}
	m["policy.plan_batch_ns"] = timeOp(func() { ctl.PlanBatch(2) }) * 1e9
	stage := core.StageRequest{Members: members, Pending: 32, BatchSize: 32, DefaultEnd: t.initialStage}
	m["policy.next_stage_ns"] = timeOp(func() { ctl.NextStage(stage) }) * 1e9

	// internal/server against a zero-cost backend: decode, validation,
	// admission, batcher hand-off and encode, without network or compute.
	for _, n := range []int{1, 32} {
		us, err := stubRequest(t, n)
		if err != nil {
			return costs{}, err
		}
		m[fmt.Sprintf("server.stub_request_us.b%d", n)] = us
	}

	kernelProbes(m, c.logf)
	return r.costsAt(observedBatch, oracle, t, forward), nil
}

// allocBytes is the heap bytes one call of fn allocates, averaged over n.
func allocBytes(n int, fn func()) float64 {
	var before, after runtime.MemStats
	fn()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// persistProbe times the L2 tier on a temporary directory inside the
// checkout: the write-behind enqueue, and the rate at which entries become
// durable.
func persistProbe(fp cache.Fingerprint, dec core.Decision, keys []cache.Key, m map[string]float64) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(persist.Config{Dir: dir, QueueDepth: 2 * len(keys)}, fp,
		persist.Codec[core.Decision]{Encode: core.EncodeDecision, Decode: core.DecodeDecision})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, k := range keys {
		store.Add(k, dec)
	}
	m["persist.add_ns"] = time.Since(start).Seconds() / float64(len(keys)) * 1e9
	if err := store.Flush(); err != nil {
		store.Close()
		return err
	}
	// The flusher starts writing while entries are still being queued, so
	// the rate is bytes made durable over first enqueue to flush return.
	m["persist.flush_mb_per_s"] = float64(store.Stats().DiskBytes) / 1e6 / time.Since(start).Seconds()
	return store.Close()
}

// stubBackend answers every batch at once with zero predictions.
type stubBackend struct{}

func (stubBackend) ClassifyBatchContext(_ context.Context, images []polygraph.Image) ([]polygraph.Prediction, error) {
	return make([]polygraph.Prediction, len(images)), nil
}
func (stubBackend) InputShape() (int, int, int) { return 3, 32, 32 }

// stubRequest is the microseconds the real handler spends on one request of
// n images when the backend costs nothing and the batcher does not wait.
func stubRequest(t *traffic, n int) (float64, error) {
	srv, err := server.New(server.Config{Backend: stubBackend{}, BatchWindow: -1})
	if err != nil {
		return 0, err
	}
	body := t.body(n)
	h := srv.Handler()
	status := http.StatusOK
	us := timeOp(func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			status = rec.Code
		}
	}) * 1e6
	if err := srv.Drain(context.Background()); err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("stub server answered %d", status)
	}
	return us, nil
}
