package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	polygraph "repro"
)

// Phase lengths that do not depend on --seconds. The timed phase is the
// same on every commit; only probes and the traced run may ever be
// shortened to fit a time cap.
const (
	warmup       = 2 * time.Second
	setupSamples = 3
	// mismatchBound is how large a share of answered images may differ from
	// the oracle in label or reliable flag before the run is incorrect
	// (float confidences one ulp from Thr_Conf may land on either side
	// depending on batch composition).
	mismatchBound = 0.001
)

type runConfig struct {
	w        workload
	seed     int64
	seconds  float64
	smoke    bool
	traceOut string
	log      io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "# "+format+"\n", args...)
}

// span is the given share of the timed phase's length.
func (c runConfig) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c runConfig) warmup() time.Duration {
	if c.smoke {
		return 300 * time.Millisecond
	}
	return warmup
}

// header records where the numbers were taken.
func (c runConfig) header() {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	model, simd := cpuInfo()
	load := loadAverage()
	c.logf("workload=%s seed=%d seconds=%g commit=%s%s", c.w.name, c.seed, c.seconds, commit, modified)
	c.logf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s simd=%s load1=%.2f",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), simd, load)
	if load > 0.5 {
		c.logf("WARNING: 1-min load average %.2f > 0.5 at start; timings will be noisy", load)
	}
}

// cpuInfo reads the CPU model and the SIMD features the kernels dispatch on.
func cpuInfo() (model, simd string) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH, "unknown"
	}
	var feats []string
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if feats == nil {
				for _, f := range strings.Fields(v) {
					switch f {
					case "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512_vnni", "avx_vnni":
						feats = append(feats, f)
					}
				}
			}
		}
	}
	return model, strings.Join(feats, ",")
}

func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// rssSampler reads the process's resident set every 50 ms while a phase
// runs. The mean over the phase is the memory metric: the peak (VmHWM)
// depends on where in a collection cycle the largest batch landed and moved
// by 30 % between identical runs.
type rssSampler struct {
	quit chan struct{}
	done chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var samples []float64
		for {
			select {
			case <-s.quit:
				s.done <- mean(samples)
				return
			case <-tick.C:
				if v := rssMiB(); v > 0 {
					samples = append(samples, v)
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the mean resident set in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.done
}

// rssMiB is the process's current resident set, 0 off Linux.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeakMiB is the process's peak resident set (VmHWM), 0 off Linux.
func rssPeakMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// measureSetup brings the workload's deployment up `samples` times and
// returns the last one running together with each bring-up's duration.
// Set-up is everything between process start and listeners accepting: zoo
// load, design, backend compile + calibrate + prepack, cache and cluster
// bring-up. The first sample is taken from process start.
func measureSetup(w workload, tr *tracer, samples int) (*deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		d, err := bringUp(w, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == samples-1 {
			return d, times, nil
		}
		if err := d.shutdown(); err != nil {
			return nil, nil, fmt.Errorf("shutting down set-up sample %d: %w", i, err)
		}
	}
}

// makeTraffic builds the oracle (the workload's options minus cache and
// cluster), generates the seeded pool and asks the oracle for every image —
// all before the clock starts. The oracle is returned for the replay probes.
func makeTraffic(c runConfig) (*traffic, *polygraph.System, error) {
	base, labels, err := polygraph.TestImages(benchmarkName, 0)
	if err != nil {
		return nil, nil, err
	}
	oracle, err := polygraph.Build(benchmarkName, c.w.oracleOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("building the oracle: %w", err)
	}
	_, freq := oracle.Thresholds()
	t, err := newTraffic(c.w, c.seed, base, labels, oracle, min(max(freq, 2), members))
	if err != nil {
		return nil, nil, err
	}
	c.logf("members (RADE order): %s", strings.Join(oracle.Members(), " "))
	return t, oracle, nil
}

// gate folds the phases' failure and mismatch counts into the run's
// verdict and logs what went wrong.
func gate(c runConfig, res *result, phases ...*phase) {
	answered, mismatched := 0, 0
	confDiff := 0.0
	for _, p := range phases {
		res.Attempted += p.requests
		res.Failed += p.failed
		answered += p.answered
		mismatched += p.mismatched
		confDiff = max(confDiff, p.confDiff)
		for _, f := range p.failures {
			c.logf("FAILED %s", f)
		}
	}
	c.logf("requests=%d failed=%d images_answered=%d decision_mismatches=%d core.confidence_max_absdiff=%.3g",
		res.Attempted, res.Failed, answered, mismatched, confDiff)
	res.Correct = res.Attempted > 0 && res.Failed == 0 && answered > 0 &&
		float64(mismatched) <= mismatchBound*float64(answered)
	if !res.Correct {
		c.logf("INCORRECT: failed requests or decision mismatches above %g of answered images", mismatchBound)
	}
}

// gateCluster fails the run when, with every peer up, an image degraded to
// local fallback compute or a forward failed.
func gateCluster(c runConfig, res *result, end counters) {
	if end.fallback > 0 || end.forwardErrors > 0 {
		c.logf("INCORRECT: %d fallbacks / %d forward errors with every peer up", end.fallback, end.forwardErrors)
		res.Correct = false
	}
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// runUntraced is the --trace 0 run: set-up, warm-up, timed phase, drain,
// with nothing of the harness in the request path. End-to-end metrics come
// from here.
func runUntraced(c runConfig) (*result, error) {
	c.header()
	samples := setupSamples
	if c.smoke {
		samples = 1
	}
	d, setups, err := measureSetup(c.w, nil, samples)
	if err != nil {
		return nil, err
	}
	t, _, err := makeTraffic(c)
	if err != nil {
		d.shutdown()
		return nil, err
	}
	// The oracle, the discarded set-up samples and the pool fragments are
	// garbage now; hand their pages back so resident memory during the load
	// is the serving system's, not what set-up left behind.
	debug.FreeOSMemory()

	g := newGenerator(t, d, nil)
	warm := g.run(c.warmup())
	rss := startRSSSampler()
	timed := g.run(c.span(1))
	rssMean := rss.stop()
	g.close()
	end := d.counters()
	if err := d.shutdown(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	lat := timed.sortedLatencyMS()
	tp, fp := t.quality()
	c.logf("setup samples: %.3f s; latency samples: %d; quality over %d pool images", setups, len(lat), c.w.pool)
	c.logf("window rates: %.0f img/s; latency p25/p50/p75: %.3f/%.3f/%.3f ms",
		timed.windows(), percentile(lat, 25), percentile(lat, 50), percentile(lat, 75))
	res := &result{}
	gate(c, res, warm, timed)
	gateCluster(c, res, end)
	res.Metrics = printMetrics(c.log, c.w.name, endToEnd, map[string]float64{
		"images_per_s":   timed.throughput(),
		"latency_mid_ms": midMean(lat),
		"tp_share":       tp,
		"fp_free_share":  1 - fp,
		"setup_s":        median(setups),
		"rss_mean_mb":    rssMean,
	})
	return res, nil
}
