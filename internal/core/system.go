package core

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// Member is one Layer-1/Layer-2 unit of a live PolygraphMR system: a
// preprocessor feeding a trained CNN.
type Member struct {
	Name string
	Pre  preprocess.Preprocessor
	Net  *nn.Network
	// Backend selects the numeric execution path (f64, f32, int8). It takes
	// effect once System.PrepareBackends compiles the reduced-precision net;
	// until then the member runs the float64 net NewSystem compiled (see
	// backend.go).
	Backend Backend
	// Verified requests ABFT checksum verification of this member's
	// inference kernels (see verify.go). It takes effect once
	// System.PrepareVerified installs the outcome sink; until then the
	// member runs unverified.
	Verified bool

	// net is the compiled net the member serves with: the float64 net
	// NewSystem compiles, or the f32/int8 net PrepareBackends compiles for
	// Backend.
	net compiledNet

	// alt holds the compiled backend variants, indexed by Backend, so a
	// StagePolicy can switch a stage between f64/f32/int8 without
	// recompiling: alt[BackendF64] is compiled with the member's f64 net,
	// the reduced-precision variants by PrepareAdaptive.
	alt [3]compiledNet
}

// compiledNet is a member network compiled at one element width: an
// nn.Net[float64] or an nn.Net[float32] (f32 or int8 nodes). InferBatch
// returns one softmax row per input, drawing scratch from a; Tile is the
// number of images the engine hands it per call.
type compiledNet interface {
	InferBatch(xs []*tensor.T, a *tensor.Arena) [][]float64
	Tile() int
}

// resolveNet picks the compiled net for a stage: the member's configured
// net when no override is requested (or the override matches the
// configured backend), otherwise the variant for the requested backend. A
// reduced-precision variant PrepareAdaptive never compiled falls back to
// the configured net — correct, just not cheaper.
func (m *Member) resolveNet(be Backend, override bool) compiledNet {
	if !override || be == m.Backend {
		return m.net
	}
	if int(be) < len(m.alt) && m.alt[be] != nil {
		return m.alt[be]
	}
	return m.net
}

// compileF64 compiles the member's float64 net, which it serves with
// until PrepareBackends assigns another backend and which a policy's f64
// override runs.
func (m *Member) compileF64() error {
	net, err := m.compile(BackendF64, nil)
	if err != nil {
		return err
	}
	m.net, m.alt[BackendF64] = net, net
	return nil
}

// Infer runs the member on a raw input image: a batch of one through the
// net the engine serves with, so its row is the one Classify votes on.
func (m Member) Infer(x *tensor.T) []float64 {
	return m.net.InferBatch([]*tensor.T{m.Pre.Apply(x)}, nil)[0]
}

// System is a runnable PolygraphMR instance: members in priority order, the
// profiled decision thresholds, and the activation strategy.
//
// A System is safe for concurrent use: Classify and ClassifyBatch may be
// called from many goroutines on a shared instance, because member forward
// passes are read-only (see the internal/nn package contract) and the only
// state calls share is the mutex-guarded scratch free list. The exported
// fields are configuration and must not be mutated while classifications
// are in flight. A System must not be copied after first use.
type System struct {
	// Members are in RADE priority order (highest contribution first).
	Members []Member
	// Th are the decision-engine thresholds selected during profiling.
	Th Thresholds
	// Staged enables RADE staged activation (§III-F); when false every
	// member runs on every input.
	Staged bool
	// Batch is the number of members activated together per stage (models
	// the number of available GPUs); minimum 1.
	Batch int
	// Workers caps the concurrent (member, image tile) forwards of one
	// engine call (DESIGN.md §4); 0 or negative selects
	// runtime.GOMAXPROCS(0), which also bounds any larger setting. It
	// changes wall-clock time only: every setting runs the same kernels and
	// returns the same bits.
	Workers int
	// Cache, when non-nil, short-circuits Classify/ClassifyBatch with
	// content-addressed cached decisions, coalesces concurrent identical
	// inputs onto one ensemble pass, and dedups repeats within a batch
	// (see cached.go). Attach with EnableCache after the configuration is
	// final — the cache key is fingerprinted against it.
	Cache *PredictionCache

	// Policy, when non-nil, lets a runtime cascade controller reshape the
	// staged schedule per batch — stage depth, per-stage backend, halting —
	// to trade accuracy headroom for latency (see policy.go and
	// internal/policy). It applies to the batched engine (ClassifyBatch);
	// single-image Classify always runs the static reference schedule. nil
	// keeps the batched engine bit-identical to the static path. Attach
	// before EnableCache so the fingerprint covers the policy descriptor.
	Policy StagePolicy

	// abft aggregates ABFT verification outcomes across every verified
	// member inference; non-nil once PrepareVerified(true) ran (verify.go).
	abft *tensor.AbftStats

	// scratch holds the worker arenas and preprocess slabs the engine
	// reuses across calls (batch.go).
	scratch scratchList
}

// NewSystem assembles a system from members and thresholds, compiling
// every member's float64 net (nn.Compile): a member serves with it until
// PrepareBackends assigns another backend. A network the compiler refuses
// — one with an ActivationHook — is an error naming the member.
func NewSystem(members []Member, th Thresholds) (*System, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: system needs at least one member")
	}
	if th.Freq < 1 || th.Freq > len(members) {
		return nil, fmt.Errorf("core: Thr_Freq %d out of range for %d members", th.Freq, len(members))
	}
	if th.Conf < 0 || th.Conf > 1 {
		return nil, fmt.Errorf("core: Thr_Conf %v out of [0,1]", th.Conf)
	}
	for i := range members {
		if err := members[i].compileF64(); err != nil {
			return nil, err
		}
	}
	return &System{Members: members, Th: th, Batch: 1}, nil
}

// Classify runs the system on one input image and returns the decision.
// With Staged set, members are activated in priority order until the
// decision is determined, and Decision.Activated reports how many ran. It
// is ClassifyBatch at a batch of one: the same fused kernels, so the
// decision — Confidence included — is bit-identical to the one the image
// gets inside any batch.
func (s *System) Classify(x *tensor.T) Decision {
	d, _ := s.ClassifyContext(context.Background(), x)
	return d
}

// ClassifyContext is Classify with cooperative cancellation: the engine
// polls the context before every member forward pass and returns ctx.Err()
// when it is done before a decision is reached. With a never-done context
// it behaves exactly like Classify.
func (s *System) ClassifyContext(ctx context.Context, x *tensor.T) (Decision, error) {
	if s.Cache != nil {
		return s.classifyCached(ctx, x)
	}
	return s.classifyUncached(ctx, x)
}

// classifyUncached runs the full engine on one image, bypassing any attached
// cache: a batch of one through the batched engine. It never consults an
// attached Policy — single-image Classify is the static reference schedule,
// which is also what lets the cached single-image path store its result
// unconditionally.
func (s *System) classifyUncached(ctx context.Context, x *tensor.T) (Decision, error) {
	ds, _, err := s.classifyBatchStaged(ctx, []*tensor.T{x}, nil, s.batchStageArenaInfer())
	if err != nil {
		return Decision{}, err
	}
	return ds[0], nil
}

// BuildSystem constructs a live system for a benchmark from zoo-trained
// variants. Members are ordered by the RADE priority statistic measured on
// the validation split, and thresholds are profiled there too, at a TP
// floor of 100% of the ORG baseline accuracy.
func BuildSystem(zoo *model.Zoo, b model.Benchmark, variants []model.Variant) (*System, error) {
	rec, err := BuildRecorded(zoo, b, variants, model.SplitVal)
	if err != nil {
		return nil, err
	}
	baseAcc, err := zoo.Accuracy(b, model.Variant{}, model.SplitVal)
	if err != nil {
		return nil, err
	}
	th, _, ok := rec.SelectThresholds(baseAcc)
	if !ok {
		// Accept-all fallback: a single agreeing vote suffices.
		th = Thresholds{Conf: 0, Freq: 1}
	}

	order := rec.PriorityOrder()
	members := make([]Member, 0, len(variants))
	for _, idx := range order {
		v := variants[idx]
		pp, err := v.Preprocessor()
		if err != nil {
			return nil, err
		}
		net, err := zoo.Network(b, v)
		if err != nil {
			return nil, err
		}
		members = append(members, Member{Name: v.Key(), Pre: pp, Net: net})
	}
	sys, err := NewSystem(members, th)
	if err != nil {
		return nil, err
	}
	sys.Staged = true
	return sys, nil
}
