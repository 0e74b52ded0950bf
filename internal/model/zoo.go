package model

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// cacheSchema is bumped whenever topologies, recipes or dataset generators
// change incompatibly, invalidating all previously cached artifacts.
const cacheSchema = "v1"

// Variant identifies one member network of a redundancy system: a
// preprocessor name (behaviour diversity via Layer 1) and/or a random-init
// replica index (the paper's traditional-MR diversity source).
type Variant struct {
	// Preproc is the preprocessor name ("ORG", "FlipX", "Gamma(2)", ...).
	// Empty means "ORG".
	Preproc string
	// Init is the replica index for weight-initialization diversity; 0 is
	// the canonical instance.
	Init int
}

// Key returns a stable identifier used in cache paths and seeds.
func (v Variant) Key() string {
	p := v.Preproc
	if p == "" {
		p = "ORG"
	}
	if v.Init == 0 {
		return p
	}
	return fmt.Sprintf("%s#%d", p, v.Init)
}

// CandidatePool returns the preprocessor variants greedy design picks
// members from: the paper's Table I pool minus Hist (redundant with AdHist
// at our image sizes). Scale(0.8) is examined separately by the Fig. 8
// experiment as the paper's example of a weak diversity source.
func CandidatePool() []Variant {
	names := []string{"AdHist", "ConNorm", "FlipX", "FlipY", "Gamma(1.5)", "Gamma(2)", "ImAdj"}
	vs := make([]Variant, len(names))
	for i, n := range names {
		vs[i] = Variant{Preproc: n}
	}
	return vs
}

// Preprocessor resolves the variant's preprocessor.
func (v Variant) Preprocessor() (preprocess.Preprocessor, error) {
	if v.Preproc == "" {
		return preprocess.Identity{}, nil
	}
	return preprocess.ByName(v.Preproc)
}

// Split selects a dataset split.
type Split int

// Dataset splits. Val is the offline profiling split used for threshold and
// configuration selection; Test is held out for the final evaluation.
const (
	SplitTrain Split = iota
	SplitVal
	SplitTest
)

// String returns the split name.
func (s Split) String() string {
	switch s {
	case SplitTrain:
		return "train"
	case SplitVal:
		return "val"
	case SplitTest:
		return "test"
	default:
		return fmt.Sprintf("Split(%d)", int(s))
	}
}

// Zoo trains and caches the model suite. All artifacts — trained weights and
// recorded per-split logits — are cached in memory and on disk, keyed by
// (benchmark, variant, profile), so every experiment shares one training of
// each member network. A Zoo is safe for use from a single goroutine.
type Zoo struct {
	// Dir is the on-disk cache directory. Empty disables disk caching.
	Dir string
	// Profile selects dataset scale.
	Profile dataset.Profile
	// Progress, when non-nil, receives human-readable notes on cache misses
	// (a training run starting, etc.).
	Progress func(format string, args ...any)

	mu       sync.Mutex
	datasets map[string]*dataset.Dataset
	nets     map[string]*nn.Network
	logits   map[string][][]float64
	fps      map[string]string
}

// NewZoo creates a zoo backed by dir (which may be empty for memory-only
// operation) at the given dataset profile.
func NewZoo(dir string, p dataset.Profile) *Zoo {
	return &Zoo{
		Dir:      dir,
		Profile:  p,
		datasets: make(map[string]*dataset.Dataset),
		nets:     make(map[string]*nn.Network),
		logits:   make(map[string][][]float64),
		fps:      make(map[string]string),
	}
}

// DefaultZoo returns a zoo rooted at <repo>/testdata/zoo when the repository
// root can be located from the working directory, and a memory-only zoo
// otherwise.
func DefaultZoo() *Zoo {
	dir := ""
	if root, err := FindRepoRoot(); err == nil {
		dir = filepath.Join(root, "testdata", "zoo")
	}
	return NewZoo(dir, dataset.ActiveProfile())
}

// FindRepoRoot walks up from the working directory to the directory
// containing go.mod.
func FindRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("model: getwd: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("model: no go.mod above working directory")
		}
		dir = parent
	}
}

func (z *Zoo) logf(format string, args ...any) {
	if z.Progress != nil {
		z.Progress(format, args...)
	}
}

// Dataset returns the (memoized) dataset by name.
func (z *Zoo) Dataset(name string) (*dataset.Dataset, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if d, ok := z.datasets[name]; ok {
		return d, nil
	}
	cfg, ok := dataset.ByName(name, z.Profile)
	if !ok {
		return nil, fmt.Errorf("model: unknown dataset %q", name)
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("model: generating %s: %w", name, err)
	}
	z.datasets[name] = d
	return d, nil
}

// seedFor derives a deterministic training seed from benchmark and variant.
func seedFor(bench string, v Variant) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", cacheSchema, bench, v.Key())
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

func (z *Zoo) profileTag() string {
	if z.Profile == dataset.Full {
		return "full"
	}
	return "fast"
}

// fingerprint digests everything that determines a trained artifact —
// topology (layer names, parameter count), training recipe and dataset
// configuration — so that cached files are invalidated automatically when
// any of them changes.
func (z *Zoo) fingerprint(b Benchmark) string {
	z.mu.Lock()
	if fp, ok := z.fps[b.Name]; ok {
		z.mu.Unlock()
		return fp
	}
	z.mu.Unlock()

	h := fnv.New64a()
	fmt.Fprintf(h, "%s|", cacheSchema)
	if cfg, err := b.DatasetConfig(z.Profile); err == nil {
		fmt.Fprintf(h, "%+v|", cfg)
		probe := b.Build(newRandFor(1), cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
		for _, l := range probe.Layers {
			fmt.Fprintf(h, "%s,", l.Name())
		}
		fmt.Fprintf(h, "%d|", probe.NumParams())
	}
	fmt.Fprintf(h, "%+v", b.Train)
	fp := fmt.Sprintf("%08x", h.Sum64()&0xffffffff)

	z.mu.Lock()
	z.fps[b.Name] = fp
	z.mu.Unlock()
	return fp
}

func (z *Zoo) netPath(b Benchmark, v Variant) string {
	return filepath.Join(z.Dir, fmt.Sprintf("%s__%s__%s__%s.net.gob", b.Name, v.Key(), z.profileTag(), z.fingerprint(b)))
}

func (z *Zoo) logitsPath(b Benchmark, v Variant, split Split, tag string) string {
	name := fmt.Sprintf("%s__%s__%s__%s__%s%s.logits.gob", b.Name, v.Key(), split, z.profileTag(), z.fingerprint(b), tag)
	return filepath.Join(z.Dir, name)
}

// Network returns the trained member network for (benchmark, variant),
// training it on the variant-preprocessed train split on first use.
func (z *Zoo) Network(b Benchmark, v Variant) (*nn.Network, error) {
	key := b.Name + "|" + v.Key()
	z.mu.Lock()
	if net, ok := z.nets[key]; ok {
		z.mu.Unlock()
		return net, nil
	}
	z.mu.Unlock()

	ds, err := z.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	rng := newRandFor(seedFor(b.Name, v))
	net := b.Build(rng, ds.Classes, ds.InShape)

	pp, err := v.Preprocessor()
	if err != nil {
		return nil, fmt.Errorf("model: variant %s: %w", v.Key(), err)
	}

	path := ""
	if z.Dir != "" {
		path = z.netPath(b, v)
		if err := net.LoadParamsFile(path); err == nil {
			// Cached nets written before the collapse-retry ladder existed
			// may be collapsed; detect and retrain them once. The ladder
			// marker accepts the net whatever the probe says (it stops
			// hopeless variants retraining on every load), so it is
			// checked first and spares the probe.
			ok := z.hasRetryMarker(path)
			if !ok {
				acc, err := probeAccuracy(net, applyPreproc(pp, probeSlice(ds.Val)))
				if err != nil {
					return nil, fmt.Errorf("model: probing %s/%s: %w", b.Name, v.Key(), err)
				}
				ok = acc > collapseThreshold(ds.Classes)
			}
			if ok {
				z.mu.Lock()
				z.nets[key] = net
				z.mu.Unlock()
				return net, nil
			}
			z.logf("cached %s / %s is collapsed; retraining", b.Name, v.Key())
		}
	}
	z.logf("training %s / %s (%d samples)", b.Name, v.Key(), len(ds.Train))
	train := applyPreproc(pp, ds.Train)
	probe := applyPreproc(pp, probeSlice(ds.Val))

	// Training occasionally collapses into a constant predictor on heavily
	// transformed inputs (the loss plateaus at ln C). Retry with a halved
	// learning rate — deterministically — and keep the best attempt.
	net, retried, err := z.trainWithRetries(b, v, train, probe, ds)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := net.SaveParamsFile(path); err != nil {
			return nil, fmt.Errorf("model: caching %s/%s: %w", b.Name, v.Key(), err)
		}
		if retried {
			z.writeRetryMarker(path)
		}
	}
	// Any recorded outputs of a previous (e.g. collapsed) instance of this
	// member are now stale.
	z.invalidateLogits(b, v)
	z.mu.Lock()
	z.nets[key] = net
	z.mu.Unlock()
	return net, nil
}

// invalidateLogits drops all cached recorded outputs of one member, in
// memory and on disk.
func (z *Zoo) invalidateLogits(b Benchmark, v Variant) {
	prefix := b.Name + "|" + v.Key() + "|"
	z.mu.Lock()
	for k := range z.logits {
		if strings.HasPrefix(k, prefix) {
			delete(z.logits, k)
		}
	}
	z.mu.Unlock()
	if z.Dir == "" {
		return
	}
	pattern := filepath.Join(z.Dir, fmt.Sprintf("%s__%s__*.logits.gob", b.Name, v.Key()))
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return
	}
	for _, m := range matches {
		os.Remove(m)
	}
}

// collapseThreshold is the quick-accuracy level below which a trained
// member is considered collapsed (chance for C classes is 1/C).
func collapseThreshold(classes int) float64 { return 2.5 / float64(classes) }

// probeSlice bounds the quick-accuracy evaluation set.
func probeSlice(val []nn.Sample) []nn.Sample {
	const n = 200
	if len(val) <= n {
		return val
	}
	return val[:n]
}

// probeAccuracy is the collapse probe: the top-1 accuracy of net on
// samples, computed on the served forward — the net compiled at f64 and run
// through InferBatch in Tile()-sized chunks on one arena — rather than by
// nn.Accuracy's per-image Network.Forward, which the server never runs.
// A net that does not compile is an error.
func probeAccuracy(net *nn.Network, samples []nn.Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	cn, err := nn.Compile[float64](net)
	if err != nil {
		return 0, err
	}
	a := tensor.NewArena()
	xs := make([]*tensor.T, 0, cn.Tile())
	correct := 0
	for lo := 0; lo < len(samples); lo += cn.Tile() {
		chunk := samples[lo:min(lo+cn.Tile(), len(samples))]
		xs = xs[:0]
		for _, s := range chunk {
			xs = append(xs, s.X)
		}
		for i, row := range cn.InferBatch(xs, a) {
			if argmax(row) == chunk[i].Label {
				correct++
			}
		}
		a.Reset()
	}
	return float64(correct) / float64(len(samples)), nil
}

// trainWithRetries trains a fresh network, retrying with halved learning
// rates when the result is a collapsed (near-chance) predictor, and returns
// the best attempt by probe accuracy plus whether any retry was needed.
func (z *Zoo) trainWithRetries(b Benchmark, v Variant, train, probe []nn.Sample, ds *dataset.Dataset) (*nn.Network, bool, error) {
	var best *nn.Network
	bestAcc := -1.0
	lr := b.Train.LR
	retried := false
	for attempt := 0; attempt < 3; attempt++ {
		net := b.Build(newRandFor(seedFor(b.Name, v)+int64(attempt)), ds.Classes, ds.InShape)
		cfg := b.Train
		cfg.LR = lr
		cfg.Seed = seedFor(b.Name, v) + 7 + int64(attempt)
		if _, err := nn.Train(net, train, cfg); err != nil {
			return nil, retried, fmt.Errorf("model: training %s/%s: %w", b.Name, v.Key(), err)
		}
		acc, err := probeAccuracy(net, probe)
		if err != nil {
			return nil, retried, fmt.Errorf("model: probing %s/%s: %w", b.Name, v.Key(), err)
		}
		if acc > bestAcc {
			best, bestAcc = net, acc
		}
		if acc > collapseThreshold(ds.Classes) {
			break
		}
		retried = true
		z.logf("  %s / %s collapsed (probe acc %.3f); retrying at lr %.4g", b.Name, v.Key(), acc, lr/2)
		lr /= 2
	}
	return best, retried, nil
}

// hasRetryMarker reports whether the collapse-retry ladder already ran for
// the cached net at path.
func (z *Zoo) hasRetryMarker(path string) bool {
	_, err := os.Stat(path + ".retried")
	return err == nil
}

// writeRetryMarker records that the retry ladder ran for path, so a variant
// that remains near chance after all attempts is not retrained on every
// load.
func (z *Zoo) writeRetryMarker(path string) {
	// Best effort: a missing marker only costs a redundant retrain later.
	_ = os.WriteFile(path+".retried", []byte("retry ladder completed\n"), 0o644)
}

// Logits returns the raw member logits on every sample of the split, in
// split order, computing and caching them on first use. The variant's
// preprocessor is applied to each sample before inference, exactly as
// PolygraphMR's Layer 1 does at run time.
func (z *Zoo) Logits(b Benchmark, v Variant, split Split) ([][]float64, error) {
	return z.logitsTagged(b, v, split, "", nil)
}

// LogitsHooked is Logits with a network-mutating hook applied before
// inference (used by the reduced-precision simulation) and a cache tag
// distinguishing the mutated results. The hook receives a freshly loaded
// network and may modify weights and set the activation hook.
func (z *Zoo) LogitsHooked(b Benchmark, v Variant, split Split, tag string, hook func(*nn.Network)) ([][]float64, error) {
	if tag == "" {
		return nil, fmt.Errorf("model: LogitsHooked requires a non-empty cache tag")
	}
	return z.logitsTagged(b, v, split, "__"+tag, hook)
}

func (z *Zoo) logitsTagged(b Benchmark, v Variant, split Split, tag string, hook func(*nn.Network)) ([][]float64, error) {
	key := fmt.Sprintf("%s|%s|%s%s", b.Name, v.Key(), split, tag)
	z.mu.Lock()
	if ls, ok := z.logits[key]; ok {
		z.mu.Unlock()
		return ls, nil
	}
	z.mu.Unlock()

	path := ""
	if z.Dir != "" {
		path = z.logitsPath(b, v, split, tag)
		if ls, err := loadLogits(path); err == nil {
			z.mu.Lock()
			z.logits[key] = ls
			z.mu.Unlock()
			return ls, nil
		}
	}

	net, err := z.Network(b, v)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		// Mutating hooks get a private copy so the cached full-precision
		// network stays pristine.
		copyNet, err := z.freshCopy(b, v)
		if err != nil {
			return nil, err
		}
		hook(copyNet)
		net = copyNet
	}
	ds, err := z.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	pp, err := v.Preprocessor()
	if err != nil {
		return nil, err
	}
	samples := applyPreproc(pp, SplitSamples(ds, split))
	ls := nn.LogitsAll(net, samples)
	if path != "" {
		if err := saveLogits(path, ls); err != nil {
			return nil, err
		}
	}
	z.mu.Lock()
	z.logits[key] = ls
	z.mu.Unlock()
	return ls, nil
}

// freshCopy rebuilds the network topology and reloads the trained weights,
// returning an instance independent of the cached one.
func (z *Zoo) freshCopy(b Benchmark, v Variant) (*nn.Network, error) {
	orig, err := z.Network(b, v)
	if err != nil {
		return nil, err
	}
	ds, err := z.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	cp := b.Build(newRandFor(seedFor(b.Name, v)), ds.Classes, ds.InShape)
	// Copy parameters and state directly.
	src, dst := orig.Params(), cp.Params()
	for i := range src {
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
	ss, dd := orig.StateTensors(), cp.StateTensors()
	for i := range ss {
		copy(dd[i].Data, ss[i].Data)
	}
	return cp, nil
}

// newRandFor returns a deterministic RNG for the given seed.
func newRandFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SplitSamples returns the samples of the given split.
func SplitSamples(ds *dataset.Dataset, s Split) []nn.Sample {
	switch s {
	case SplitTrain:
		return ds.Train
	case SplitVal:
		return ds.Val
	case SplitTest:
		return ds.Test
	default:
		panic(fmt.Sprintf("model: unknown split %d", int(s)))
	}
}

// SplitLabels returns the ground-truth labels of the given split, in order.
func SplitLabels(ds *dataset.Dataset, s Split) []int {
	samples := SplitSamples(ds, s)
	labels := make([]int, len(samples))
	for i, smp := range samples {
		labels[i] = smp.Label
	}
	return labels
}

// Labels returns the ground-truth labels of the benchmark's split.
func (z *Zoo) Labels(b Benchmark, s Split) ([]int, error) {
	ds, err := z.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	return SplitLabels(ds, s), nil
}

// Accuracy returns the top-1 accuracy of a member on a split, computed from
// the cached logits.
func (z *Zoo) Accuracy(b Benchmark, v Variant, s Split) (float64, error) {
	ls, err := z.Logits(b, v, s)
	if err != nil {
		return 0, err
	}
	labels, err := z.Labels(b, s)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, row := range ls {
		if argmax(row) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(ls)), nil
}

func argmax(xs []float64) int {
	best, bi := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// applyPreproc maps a preprocessor over samples, sharing labels.
func applyPreproc(pp preprocess.Preprocessor, in []nn.Sample) []nn.Sample {
	if _, ok := pp.(preprocess.Identity); ok {
		return in
	}
	out := make([]nn.Sample, len(in))
	for i, s := range in {
		out[i] = nn.Sample{X: pp.Apply(s.X), Label: s.Label}
	}
	return out
}

func saveLogits(path string, ls [][]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("model: creating logits dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".logits-*")
	if err != nil {
		return fmt.Errorf("model: creating logits temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(ls); err != nil {
		tmp.Close()
		return fmt.Errorf("model: encoding logits: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("model: closing logits temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("model: committing logits: %w", err)
	}
	return nil
}

func loadLogits(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ls [][]float64
	if err := gob.NewDecoder(f).Decode(&ls); err != nil {
		return nil, fmt.Errorf("model: decoding logits %s: %w", path, err)
	}
	return ls, nil
}
