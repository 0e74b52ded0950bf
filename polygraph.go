// Package polygraph is the public API of the PolygraphMR reproduction: a
// system of preprocessor-diversified redundant CNNs that classifies images
// and reports, per prediction, whether the answer should be trusted
// (Latifi, Zamirai, Mahlke — "PolygraphMR: Enhancing the Reliability and
// Dependability of CNNs", DSN 2020).
//
// A System is assembled with Build, which trains (or loads from the on-disk
// zoo cache) the member networks of one of the six paper benchmarks, runs
// the greedy preprocessor-selection procedure, profiles the decision
// thresholds on the validation split, and orders members for staged
// activation:
//
//	sys, err := polygraph.Build("convnet", polygraph.Options{Members: 4})
//	...
//	pred, err := sys.Classify(img)
//	if pred.Reliable { act(pred.Label) } else { escalate() }
//
// The heavy lifting lives in the internal packages (see DESIGN.md); this
// package exposes a small, stable surface.
package polygraph

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/persist"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/tensor"
)

// Image is a dense image in [0,1], channel-major ([C][H][W] flattened).
type Image struct {
	Channels, Height, Width int
	// Pixels has length Channels*Height*Width, row-major within a channel.
	Pixels []float64
}

// MaxImageDim bounds each image dimension accepted by Validate. The bound
// keeps the pixel-count product far from integer overflow (2^20 per
// dimension → at most 2^60 total), so oversized dimensions cannot wrap
// around and masquerade as a matching buffer length (found by
// FuzzImageValidate).
const MaxImageDim = 1 << 20

// Validate reports an error when the dimensions and buffer disagree.
func (im Image) Validate() error {
	if im.Channels <= 0 || im.Height <= 0 || im.Width <= 0 {
		return fmt.Errorf("polygraph: non-positive image dimensions %dx%dx%d", im.Channels, im.Height, im.Width)
	}
	if im.Channels > MaxImageDim || im.Height > MaxImageDim || im.Width > MaxImageDim {
		return fmt.Errorf("polygraph: image dimensions %dx%dx%d exceed the %d per-dimension limit",
			im.Channels, im.Height, im.Width, MaxImageDim)
	}
	if len(im.Pixels) != im.Channels*im.Height*im.Width {
		return fmt.Errorf("polygraph: image buffer has %d pixels, want %d",
			len(im.Pixels), im.Channels*im.Height*im.Width)
	}
	return nil
}

func (im Image) tensor() *tensor.T {
	return tensor.FromSlice(im.Pixels, im.Channels, im.Height, im.Width)
}

// Prediction is a reliability-gated classification result.
type Prediction struct {
	// Label is the predicted class.
	Label int
	// Reliable reports whether the prediction passed the decision engine's
	// reliability gate; unreliable predictions should be escalated rather
	// than acted upon.
	Reliable bool
	// Confidence is the mean member confidence in Label.
	Confidence float64
	// Activated is the number of member networks that ran for this input
	// (less than Members() when staged activation resolved early).
	Activated int
	// Agreement is the number of accepted member votes for Label — the
	// modal frequency the decision engine compared against Thr_Freq. It is
	// 0 when no vote passed the confidence gate.
	Agreement int
}

// Options configures Build.
type Options struct {
	// Members is the system size including the baseline network (the
	// paper's sweet spot is 4). Default 4.
	Members int
	// Staged enables RADE staged activation (default true via Build).
	DisableStaged bool
	// GPUs is the number of members that can execute concurrently
	// (default 1; the paper also evaluates 2).
	GPUs int
	// Backend selects the numeric execution path of the member networks:
	// "f64" (the default, also selected by ""), "f32" (compiled float32
	// kernels), or "int8" (quantized kernels calibrated on the validation
	// split). Reduced backends run genuinely cheaper kernels — this is the
	// executable RAMR (DESIGN.md §9); the simulated narrow float of Fig. 6
	// and 11 lives in internal/precision and the fig_cost experiment.
	Backend string
	// LateBackend, when set, overrides Backend for the late tie-breaker
	// members — those beyond the initial RADE stage (activation index ≥
	// max(Thr_Freq, 2)), which only run when the early members disagree.
	// Typical use: Backend "int8" with LateBackend "f64", so the common
	// fast path runs quantized and the rare escalation stages re-check at
	// full precision.
	LateBackend string
	// Verified enables ABFT checksum verification of every member's
	// inference kernels (DESIGN.md §10): the served conv and dense kernels
	// run unchanged, and their products are checked against row/column
	// checksums in the kernel epilogue, detected faults are re-executed,
	// and a member whose fault could not be corrected abstains from voting.
	// Clean-run results are bit-identical to unverified execution. The forward-pass overhead is the benchmark's
	// nn.verified_overhead_share.{f64,f32,int8}.b32 metric (benchmark/).
	// Counters are exposed via System.AbftCounts and the serving /metrics
	// registry.
	Verified bool
	// Workers caps the concurrent (member, image tile) forwards of one
	// call. 0 selects runtime.GOMAXPROCS(0), which also bounds larger
	// settings. It never changes a result.
	Workers int
	// FPBudget, when positive, selects decision thresholds that maximize
	// answered correct predictions subject to the undetected-misprediction
	// rate staying at or below this fraction (the paper's §III-E FP-limit
	// user demand) — instead of the default 100%-TP-floor selection.
	FPBudget float64
	// Cache, when non-nil, attaches a content-addressed prediction cache:
	// Classify/ClassifyBatch return cached decisions for repeated images,
	// concurrent identical inputs share one ensemble pass, and duplicates
	// within a batch are computed once. Cached predictions are identical to
	// uncached ones — the cache key covers the image content (quantized)
	// and a fingerprint of every decision-relevant configuration field.
	Cache *CacheOptions
	// SLO, when positive, attaches the SLO-driven adaptive cascade
	// controller (DESIGN.md §12): a runtime policy that watches measured
	// stage latencies and the serving queue and, under load, degrades the
	// batched cascade — cheaper early-stage backends, a fused full-committee
	// fallback, then shallower stages — to keep the per-request latency
	// inside this budget, stepping back up with hysteresis once load drops.
	// Unloaded decisions are bit-identical to the static configuration.
	// Adaptive backend variants (f32, int8) are compiled for every member at
	// Build time so the controller can switch per batch without I/O.
	SLO time.Duration
	// Policy tunes the SLO controller; nil selects defaults. Ignored unless
	// SLO is positive.
	Policy *PolicyOptions
	// Cluster, when non-nil, joins this system to a scale-out serving
	// cluster (DESIGN.md §13): classification requests are routed by a
	// consistent-hash ring over the content-addressed image key, so each
	// unique image is computed (and cached) on exactly one owner node,
	// turning N processes into one coherent prediction cache. Decisions are
	// identical to single-node serving; an unreachable owner degrades to
	// local compute, never to an error.
	Cluster *ClusterOptions
	// Quiet suppresses the zoo's progress notes.
	Quiet bool
	// Progress, when non-nil and not Quiet, receives the zoo's progress
	// notes. The zoo notes only training runs, which Build never starts.
	Progress func(format string, args ...any)
}

// ClusterOptions configures scale-out cluster membership (Options.Cluster).
// Every node of a cluster must be built with the same benchmark and system
// configuration — forwarded requests carry the configuration fingerprint
// and the owner rejects mismatches.
type ClusterOptions struct {
	// NodeID is this node's identity; it must be a key of Peers.
	NodeID string
	// Peers maps node id → TCP address for every cluster member, this node
	// included. All nodes must agree on this map.
	Peers map[string]string
	// Listener, when non-nil, is the pre-bound listener the node serves
	// peer traffic on (useful for in-process harnesses and :0 ports). When
	// nil, Build listens on Peers[NodeID].
	Listener net.Listener
	// Replicas is the virtual-node count per peer on the consistent-hash
	// ring; 0 selects the cluster package default.
	Replicas int
	// ForwardTimeout bounds one forwarded classify exchange before the
	// image degrades to local compute. 0 selects 2s.
	ForwardTimeout time.Duration
	// DialTimeout bounds one connection attempt to a peer. 0 selects 1s.
	DialTimeout time.Duration
	// Backoff is how long a peer is held down after a connection failure
	// (forwards fail fast to local fallback meanwhile). 0 selects 500ms.
	Backoff time.Duration
	// ObserveForward, when non-nil, receives the latency and outcome of
	// every forwarded exchange — the serving layer points it at the
	// pgmr_cluster_forward_seconds histogram.
	ObserveForward func(d time.Duration, ok bool)
}

// ClusterStats is a point-in-time snapshot of the cluster routing counters;
// the zero value is returned when the system is not clustered.
type ClusterStats struct {
	// Owned counts images this node computed as their ring owner; Forwarded
	// counts images answered by their remote owner; Fallback counts images
	// whose owner was unreachable and that were computed locally instead.
	Owned, Forwarded, Fallback uint64
	// Served counts remote peers' requests this node answered as owner.
	Served uint64
	// ForwardErrors counts failed forward exchanges (timeouts, dead peers,
	// rejections); each degraded to a Fallback compute.
	ForwardErrors uint64
	// PeersUp/PeersTotal describe the remote peer set and how many of them
	// currently accept traffic; Conns counts pooled peer connections.
	PeersUp, PeersTotal int
	Conns               int
}

// PolicyOptions tunes the SLO controller (Options.SLO). The controller's
// other knobs keep the defaults documented on policy.Config.
type PolicyOptions struct {
	// MaxBatch is the serving batch cap the controller adapts around —
	// pass the same value the server is configured with. Default 64.
	MaxBatch int
}

// CacheOptions configures the prediction cache (Options.Cache).
type CacheOptions struct {
	// MaxBytes is the in-memory byte budget; <= 0 selects 64 MiB.
	MaxBytes int64
	// TTL is the entry lifetime; 0 disables expiry. Applies to both tiers.
	TTL time.Duration
	// Shards is the lock-shard count, rounded up to a power of two;
	// <= 0 selects 16.
	Shards int
	// Dir, when non-empty, attaches a persistent L2 disk tier under the
	// in-memory cache: decisions are written behind (asynchronously, lossy
	// under backpressure — the serve path never blocks on disk), survive
	// process restarts, and are promoted back into memory on first use.
	// Entries written under a different system configuration are rejected
	// at recovery via the embedded fingerprint. Call System.Close before
	// exit to flush the write-behind tail.
	Dir string
	// DiskMaxBytes is the L2 byte budget (size-budgeted compaction evicts
	// the oldest entries past it); <= 0 selects 256 MiB. Ignored without
	// Dir.
	DiskMaxBytes int64
}

// CacheStats is a point-in-time snapshot of the prediction-cache counters.
// The L2 fields are zero unless a disk tier is attached (CacheOptions.Dir).
type CacheStats struct {
	// Hits and Misses count store probes (a hit from either tier counts).
	Hits, Misses uint64
	// Coalesced counts inputs served without their own ensemble pass by
	// joining a concurrent identical computation or by intra-batch dedup.
	Coalesced uint64
	// Evictions and Expired count entries dropped for capacity and TTL.
	Evictions, Expired uint64
	// Entries and Bytes describe current in-memory occupancy.
	Entries int
	Bytes   int64
	// L2Hits counts decisions served from disk and promoted into memory.
	L2Hits uint64
	// L2Entries and L2Bytes describe the live on-disk tier.
	L2Entries int
	L2Bytes   int64
	// L2Flushed, L2Dropped and L2Backlog describe the write-behind queue:
	// records made durable, records lost to backpressure or write errors,
	// and records still queued.
	L2Flushed, L2Dropped uint64
	L2Backlog            int64
	// L2Recovered and L2Truncated describe the last recovery scan: records
	// re-indexed from disk and torn tails cut.
	L2Recovered, L2Truncated uint64
}

// System is a runnable PolygraphMR instance.
type System struct {
	sys       *core.System
	benchmark model.Benchmark
	inShape   []int
	cluster   *cluster.Node
}

// BenchmarkNames lists the supported benchmark identifiers (paper Table II).
func BenchmarkNames() []string {
	bs := model.Benchmarks()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// Build assembles a PolygraphMR system for the named benchmark (see
// BenchmarkNames) from the committed zoo, <repo>/testdata/zoo: it loads
// the trained members and their recorded outputs and never trains. A
// member whose weight file is missing — for instance in a Build run
// outside the repository — is an error naming the file and the
// `go run ./cmd/pgmr-train <benchmark>` command that trains it.
func Build(benchmark string, opts Options) (*System, error) {
	b, err := model.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	if opts.Members == 0 {
		opts.Members = 4
	}
	if opts.Members < 2 || opts.Members > 8 {
		return nil, fmt.Errorf("polygraph: Members must be in [2, 8], got %d", opts.Members)
	}
	zoo := model.DefaultZoo()
	if opts.Progress != nil && !opts.Quiet {
		zoo.Progress = opts.Progress
	}

	design, err := core.GreedyDesign(zoo, b, model.CandidatePool(), opts.Members)
	if err != nil {
		return nil, fmt.Errorf("polygraph: designing system: %w", err)
	}
	sys, err := core.BuildSystem(zoo, b, design.Variants)
	if err != nil {
		return nil, fmt.Errorf("polygraph: building system: %w", err)
	}
	if opts.FPBudget > 0 {
		rec, err := core.BuildRecorded(zoo, b, design.Variants, model.SplitVal)
		if err != nil {
			return nil, fmt.Errorf("polygraph: profiling FP budget: %w", err)
		}
		th, _, ok := rec.SelectByFPBudget(opts.FPBudget)
		if !ok {
			return nil, fmt.Errorf("polygraph: no design point satisfies FP budget %.4f", opts.FPBudget)
		}
		sys.Th = th
	}
	sys.Staged = !opts.DisableStaged
	if opts.GPUs > 0 {
		sys.Batch = opts.GPUs
	}
	sys.Workers = opts.Workers
	ds, err := zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	// Calibration inputs for backend compilation: a deterministic slice of
	// the validation split — the same data the thresholds were profiled on,
	// never the test split.
	calib := func() []*tensor.T {
		cs := make([]*tensor.T, 0, 16)
		for i := 0; i < len(ds.Val) && i < 16; i++ {
			cs = append(cs, ds.Val[i].X)
		}
		return cs
	}
	early, late := core.BackendF64, core.BackendF64
	if opts.Backend != "" || opts.LateBackend != "" {
		if early, err = core.ParseBackend(opts.Backend); err != nil {
			return nil, fmt.Errorf("polygraph: %w", err)
		}
		late = early
		if opts.LateBackend != "" {
			if late, err = core.ParseBackend(opts.LateBackend); err != nil {
				return nil, fmt.Errorf("polygraph: %w", err)
			}
		}
		// The initial RADE stage always activates max(Thr_Freq, 2) members;
		// everything beyond that index only runs on escalation.
		initial := sys.Th.Freq
		if initial < 2 {
			initial = 2
		}
		for i := range sys.Members {
			if i < initial {
				sys.Members[i].Backend = early
			} else {
				sys.Members[i].Backend = late
			}
		}
		if err := sys.PrepareBackends(calib()); err != nil {
			return nil, fmt.Errorf("polygraph: preparing backends: %w", err)
		}
	}
	if opts.Verified {
		sys.PrepareVerified(true)
	}
	if opts.SLO > 0 {
		// The controller may retarget any member onto a cheaper backend per
		// batch; compile the adaptive variants now so switching is free.
		if err := sys.PrepareAdaptive(calib()); err != nil {
			return nil, fmt.Errorf("polygraph: preparing adaptive backends: %w", err)
		}
		pcfg := policy.Config{
			SLO:        opts.SLO,
			Members:    len(sys.Members),
			Freq:       sys.Th.Freq,
			StageBatch: sys.Batch,
			BaseEarly:  early,
			BaseLate:   late,
		}
		if po := opts.Policy; po != nil {
			pcfg.BaseMaxBatch = po.MaxBatch
		}
		ctl, err := policy.New(pcfg)
		if err != nil {
			return nil, fmt.Errorf("polygraph: %w", err)
		}
		// Attach before the cache so the key fingerprint covers the policy
		// descriptor.
		sys.Policy = ctl
	}
	// The fingerprint salt once carried simulated precision bits, which
	// rewrote network weights the member names cannot express; served
	// systems always ran at full precision, so it stays the literal
	// "bits=0" and cache keys, persisted segments and cluster fingerprints
	// keep their bytes. It feeds both the prediction-cache keys and the
	// cluster routing fingerprint — which must agree, because cluster
	// routing is ownership over cache keys.
	const salt = "bits=0"
	if opts.Cache != nil {
		// Attach last, once the configuration is final: the key fingerprint
		// covers thresholds, staging, member set and the per-member backend
		// schedule.
		ccfg := cache.Config{
			MaxBytes: opts.Cache.MaxBytes,
			TTL:      opts.Cache.TTL,
			Shards:   opts.Cache.Shards,
		}
		if opts.Cache.Dir != "" {
			_, err := sys.EnableTieredCache(ccfg, persist.Config{
				Dir:      opts.Cache.Dir,
				MaxBytes: opts.Cache.DiskMaxBytes,
				TTL:      opts.Cache.TTL,
			}, salt)
			if err != nil {
				return nil, fmt.Errorf("polygraph: opening cache dir: %w", err)
			}
		} else {
			sys.EnableCache(ccfg, salt)
		}
	}
	s := &System{sys: sys, benchmark: b, inShape: ds.InShape}
	if cl := opts.Cluster; cl != nil {
		node, err := cluster.New(cluster.Config{
			NodeID:         cl.NodeID,
			Peers:          cl.Peers,
			Backend:        sys,
			Fingerprint:    sys.ConfigFingerprint(salt),
			Replicas:       cl.Replicas,
			ForwardTimeout: cl.ForwardTimeout,
			DialTimeout:    cl.DialTimeout,
			Backoff:        cl.Backoff,
			ObserveForward: cl.ObserveForward,
		})
		if err != nil {
			return nil, fmt.Errorf("polygraph: %w", err)
		}
		ln := cl.Listener
		if ln == nil {
			ln, err = net.Listen("tcp", cl.Peers[cl.NodeID])
			if err != nil {
				node.Close()
				return nil, fmt.Errorf("polygraph: cluster listen: %w", err)
			}
		}
		go node.Serve(ln)
		s.cluster = node
	}
	return s, nil
}

// checkImage validates one input against the benchmark's expected shape.
func (s *System) checkImage(im Image) error {
	if err := im.Validate(); err != nil {
		return err
	}
	if im.Channels != s.inShape[0] || im.Height != s.inShape[1] || im.Width != s.inShape[2] {
		return fmt.Errorf("polygraph: image %dx%dx%d does not match benchmark input %v",
			im.Channels, im.Height, im.Width, s.inShape)
	}
	return nil
}

func prediction(d core.Decision) Prediction {
	return Prediction{
		Label:      d.Label,
		Reliable:   d.Reliable,
		Confidence: d.Confidence,
		Activated:  d.Activated,
		Agreement:  d.Votes[d.Label],
	}
}

// Classify runs the system on one image. It is safe to call concurrently
// from many goroutines on a shared System.
func (s *System) Classify(im Image) (Prediction, error) {
	return s.ClassifyContext(context.Background(), im)
}

// ClassifyContext is Classify with a deadline/cancellation context: the
// engine checks ctx between member activations, returning ctx.Err() when
// the context is done before the decision is reached. This is the entry
// point network servers use to honor per-request deadlines.
func (s *System) ClassifyContext(ctx context.Context, im Image) (Prediction, error) {
	if err := s.checkImage(im); err != nil {
		return Prediction{}, err
	}
	var d core.Decision
	var err error
	if s.cluster != nil {
		d, err = s.cluster.Classify(ctx, im.tensor())
	} else {
		d, err = s.sys.ClassifyContext(ctx, im.tensor())
	}
	if err != nil {
		return Prediction{}, err
	}
	return prediction(d), nil
}

// ClassifyBatch classifies every image and returns index-aligned
// predictions — the throughput mode of the system. Each member network runs
// the still-undecided images in fused minibatch tiles sized to the cache,
// the (member, tile) forwards of a stage fan out across a bounded worker
// pool (Options.Workers, default GOMAXPROCS) and each worker reuses
// inference scratch buffers. Each prediction is
// bit-identical to what Classify returns for the same image, whatever else
// is in the batch.
func (s *System) ClassifyBatch(images []Image) ([]Prediction, error) {
	return s.ClassifyBatchContext(context.Background(), images)
}

// ClassifyBatchContext is ClassifyBatch with a deadline/cancellation
// context: when ctx is done before every image has been classified, the
// worker pool winds down and ctx.Err() is returned with no predictions.
// A zero-length batch returns immediately — no validation pass, no worker
// pool — with an empty, non-nil slice.
func (s *System) ClassifyBatchContext(ctx context.Context, images []Image) ([]Prediction, error) {
	if len(images) == 0 {
		return []Prediction{}, nil
	}
	xs := make([]*tensor.T, len(images))
	for i, im := range images {
		if err := s.checkImage(im); err != nil {
			return nil, fmt.Errorf("polygraph: image %d: %w", i, err)
		}
		xs[i] = im.tensor()
	}
	var ds []core.Decision
	var err error
	if s.cluster != nil {
		ds, err = s.cluster.ClassifyBatch(ctx, xs)
	} else {
		ds, err = s.sys.ClassifyBatchContext(ctx, xs)
	}
	if err != nil {
		return nil, err
	}
	preds := make([]Prediction, len(ds))
	for i, d := range ds {
		preds[i] = prediction(d)
	}
	return preds, nil
}

// CacheLookup probes the prediction cache without running any member
// network: it returns the cached prediction for the image when present and
// fresh, and (zero, false) on a miss, on an invalid image, or when no cache
// is attached. Servers use it to answer repeated images before spending
// admission-queue slots or batcher capacity on them.
func (s *System) CacheLookup(im Image) (Prediction, bool) {
	if s.sys.Cache == nil {
		return Prediction{}, false
	}
	if err := s.checkImage(im); err != nil {
		return Prediction{}, false
	}
	d, ok := s.sys.Cache.Lookup(im.tensor())
	if !ok {
		return Prediction{}, false
	}
	return prediction(d), true
}

// CacheStats snapshots the prediction-cache counters; the zero value is
// returned when no cache is attached.
func (s *System) CacheStats() CacheStats {
	if s.sys.Cache == nil {
		return CacheStats{}
	}
	st := s.sys.Cache.Stats()
	return CacheStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Coalesced:   st.Coalesced,
		Evictions:   st.Evictions,
		Expired:     st.Expired,
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		L2Hits:      st.L2Hits,
		L2Entries:   st.L2Entries,
		L2Bytes:     st.L2Bytes,
		L2Flushed:   st.L2Flushed,
		L2Dropped:   st.L2Dropped,
		L2Backlog:   st.L2Backlog,
		L2Recovered: st.L2Recovered,
		L2Truncated: st.L2Truncated,
	}
}

// FlushCache blocks until every queued write-behind entry has reached the
// persistent cache tier (or was dropped). No-op without a disk tier.
func (s *System) FlushCache() error {
	if s.sys.Cache == nil {
		return nil
	}
	return s.sys.Cache.FlushL2()
}

// Close leaves the cluster (peer connections and the transport listener
// are torn down) and flushes and closes the persistent cache tier, if any.
// Classify remains usable afterwards — cluster routing degrades to local
// compute and the cache to memory-only; call it before process exit so the
// write-behind tail reaches disk.
func (s *System) Close() error {
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.sys.Cache == nil {
		return nil
	}
	return s.sys.Cache.Close()
}

// Clustered reports whether the system is a cluster member.
func (s *System) Clustered() bool { return s.cluster != nil }

// ClusterNodeID returns this node's cluster identity, or "" when the
// system is not clustered.
func (s *System) ClusterNodeID() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.NodeID()
}

// ClusterStats snapshots the cluster routing counters; the zero value is
// returned when the system is not clustered.
func (s *System) ClusterStats() ClusterStats {
	if s.cluster == nil {
		return ClusterStats{}
	}
	st := s.cluster.Stats()
	return ClusterStats{
		Owned:         st.Owned,
		Forwarded:     st.Forwarded,
		Fallback:      st.Fallback,
		Served:        st.Served,
		ForwardErrors: st.ForwardErrors,
		PeersUp:       st.PeersUp,
		PeersTotal:    st.PeersTotal,
		Conns:         st.Conns,
	}
}

// AbftCounts is a snapshot of the ABFT verification counters (zero unless
// Options.Verified was set): checksum comparisons, detected mismatches,
// and their corrected/uncorrectable resolutions.
type AbftCounts struct {
	Checks        uint64
	Detected      uint64
	Corrected     uint64
	Uncorrectable uint64
}

// Verified reports whether ABFT checksum verification is enabled.
func (s *System) Verified() bool { return s.sys.Verified() }

// AbftCounts snapshots the cumulative verification counters.
func (s *System) AbftCounts() AbftCounts {
	c := s.sys.AbftCounts()
	return AbftCounts{
		Checks:        c.Checks,
		Detected:      c.Detected,
		Corrected:     c.Corrected,
		Uncorrectable: c.Uncorrectable,
	}
}

// PolicyController returns the SLO controller attached by Options.SLO, or
// nil when the system runs the static cascade. Servers pass it as
// server.Config.Policy so the batcher and the engine steer from the same
// state.
func (s *System) PolicyController() *policy.Controller {
	ctl, _ := s.sys.Policy.(*policy.Controller)
	return ctl
}

// Members returns the member names in activation-priority order, e.g.
// ["ORG", "FlipX", "Gamma(2)", "AdHist"].
func (s *System) Members() []string {
	names := make([]string, len(s.sys.Members))
	for i, m := range s.sys.Members {
		names[i] = m.Name
	}
	return names
}

// Thresholds returns the profiled decision-engine parameters.
func (s *System) Thresholds() (conf float64, freq int) {
	return s.sys.Th.Conf, s.sys.Th.Freq
}

// InputShape returns the expected [channels, height, width].
func (s *System) InputShape() (channels, height, width int) {
	return s.inShape[0], s.inShape[1], s.inShape[2]
}

// TestImages returns n labeled images from the benchmark's held-out test
// split of the synthetic dataset — a convenient input source for examples
// and demos.
func TestImages(benchmark string, n int) ([]Image, []int, error) {
	b, err := model.ByName(benchmark)
	if err != nil {
		return nil, nil, err
	}
	zoo := model.DefaultZoo()
	ds, err := zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, nil, err
	}
	if n <= 0 || n > len(ds.Test) {
		n = len(ds.Test)
	}
	images := make([]Image, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		s := ds.Test[i]
		images[i] = Image{
			Channels: s.X.Shape[0], Height: s.X.Shape[1], Width: s.X.Shape[2],
			Pixels: append([]float64(nil), s.X.Data...),
		}
		labels[i] = s.Label
	}
	return images, labels, nil
}
