// Command pgmr-serve runs the PolygraphMR HTTP serving subsystem: it builds
// (or loads from the zoo cache) a system for one benchmark and serves the
// classify API with work-conserving batching, admission control and /metrics.
//
// Usage:
//
//	pgmr-serve -benchmark convnet -addr :8080
//	pgmr-serve -benchmark convnet -max-batch 32 -queue 512
//	pgmr-serve -benchmark convnet -cache-mb 64 -cache-ttl 10m
//	pgmr-serve -benchmark convnet -cache-mb 64 -cache-dir /var/lib/pgmr/cache -cache-disk-mb 512
//	pgmr-serve -benchmark convnet -backend int8 -late-backend f64
//	pgmr-serve -benchmark convnet -node-id a -peers a=10.0.0.1:7001,b=10.0.0.2:7001,c=10.0.0.3:7001
//	pgmr-serve -benchmark convnet -loadtest -clients 16 -requests 500
//
// In serving mode the process runs until SIGINT/SIGTERM, then drains
// gracefully: readiness flips to 503, new classify requests are refused,
// in-flight requests finish, and the process exits. In -loadtest mode the
// server is stood up in-process on a loopback port, driven by closed-loop
// concurrent clients, and the throughput/latency summary is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for serving mode")
	benchmark := flag.String("benchmark", "convnet", "benchmark name (see pgmr -h)")
	members := flag.Int("members", 4, "number of member networks (2-8)")
	backend := flag.String("backend", "", "numeric execution backend: f64, f32 or int8 (default f64)")
	lateBackend := flag.String("late-backend", "", "backend for late-stage tie-breaker members (default: same as -backend)")
	noStage := flag.Bool("no-stage", false, "disable RADE staged activation")
	workers := flag.Int("workers", 0, "worker-pool size inside ClassifyBatch (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 64, "max images per backend batch")
	queue := flag.Int("queue", 256, "admission queue depth in images (429 beyond it)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline when the request carries no timeout_ms")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long graceful shutdown waits for in-flight requests")
	cacheMB := flag.Int("cache-mb", 0, "prediction-cache budget in MiB (0 = caching off)")
	cacheTTL := flag.Duration("cache-ttl", 0, "prediction-cache entry TTL (0 = entries never expire)")
	cacheDir := flag.String("cache-dir", "", "persistent L2 cache directory (survives restarts; requires -cache-mb)")
	cacheDiskMB := flag.Int("cache-disk-mb", 0, "L2 disk-tier budget in MiB (0 = 256 MiB default; requires -cache-dir)")
	verified := flag.Bool("verified", false, "enable ABFT checksum verification of member inference kernels")
	slo := flag.Duration("slo", 0, "per-request latency SLO; attaches the adaptive cascade controller (unset = static serving)")
	nodeID := flag.String("node-id", "", "cluster: this node's id (requires -peers)")
	peersFlag := flag.String("peers", "", "cluster: comma-separated id=host:port membership list including this node (requires -node-id)")
	quiet := flag.Bool("quiet", false, "suppress training progress output")

	loadtest := flag.Bool("loadtest", false, "run an in-process load test instead of serving")
	clients := flag.Int("clients", 8, "loadtest: closed-loop client goroutines")
	requests := flag.Int("requests", 200, "loadtest: total requests to send")
	perRequest := flag.Int("images-per-request", 1, "loadtest: images per request")
	pool := flag.Int("n", 64, "loadtest: size of the rotating image pool")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pgmr-serve: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *cacheMB < 0 || *cacheTTL < 0 || *cacheDiskMB < 0 {
		fmt.Fprintln(os.Stderr, "pgmr-serve: -cache-mb, -cache-ttl and -cache-disk-mb must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if (*cacheDir != "" || *cacheDiskMB > 0) && *cacheMB == 0 {
		fmt.Fprintln(os.Stderr, "pgmr-serve: -cache-dir/-cache-disk-mb require -cache-mb > 0")
		flag.Usage()
		os.Exit(2)
	}
	if *cacheDiskMB > 0 && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "pgmr-serve: -cache-disk-mb requires -cache-dir")
		flag.Usage()
		os.Exit(2)
	}
	if err := validateBackends(*backend, *lateBackend); err != nil {
		fmt.Fprintf(os.Stderr, "pgmr-serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	sloSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "slo" {
			sloSet = true
		}
	})
	if err := validateSLO(sloSet, *slo); err != nil {
		fmt.Fprintf(os.Stderr, "pgmr-serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	peers, err := validateCluster(*nodeID, *peersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgmr-serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if peers != nil && *loadtest {
		fmt.Fprintln(os.Stderr, "pgmr-serve: -loadtest cannot run clustered (use pgmr-cluster)")
		flag.Usage()
		os.Exit(2)
	}

	opts := polygraph.Options{
		Members:       *members,
		Backend:       *backend,
		LateBackend:   *lateBackend,
		DisableStaged: *noStage,
		Workers:       *workers,
		Verified:      *verified,
		Quiet:         *quiet,
		Progress:      func(f string, a ...any) { fmt.Fprintf(os.Stderr, "# "+f+"\n", a...) },
	}
	if *cacheMB > 0 {
		opts.Cache = &polygraph.CacheOptions{
			MaxBytes:     int64(*cacheMB) << 20,
			TTL:          *cacheTTL,
			Dir:          *cacheDir,
			DiskMaxBytes: int64(*cacheDiskMB) << 20,
		}
	}
	if *slo > 0 {
		opts.SLO = *slo
		// The controller plans around the same batch cap the server is
		// configured with.
		opts.Policy = &polygraph.PolicyOptions{MaxBatch: *maxBatch}
	}
	// The metrics bundle exists before Build so the cluster layer's forward
	// observer can feed pgmr_cluster_forward_seconds from the first request.
	metrics := telemetry.NewMetrics(*members)
	if peers != nil {
		opts.Cluster = &polygraph.ClusterOptions{
			NodeID:         *nodeID,
			Peers:          peers,
			ObserveForward: metrics.ObserveForward,
		}
	}
	sys, err := polygraph.Build(*benchmark, opts)
	if err != nil {
		fatalf("building system: %v", err)
	}
	conf, freq := sys.Thresholds()
	fmt.Fprintf(os.Stderr, "# system ready: %s members=%d Thr_Conf=%.2f Thr_Freq=%d\n",
		*benchmark, *members, conf, freq)
	if peers != nil {
		fmt.Fprintf(os.Stderr, "# cluster member %s serving peers on %s (%d peers)\n",
			*nodeID, peers[*nodeID], len(peers)-1)
	}
	scfg := server.Config{
		Backend:         sys,
		MaxBatch:        *maxBatch,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		Metrics:         metrics,
	}
	// The nil check matters: assigning a nil *policy.Controller directly
	// would make the interface non-nil and crash the batcher.
	if ctl := sys.PolicyController(); ctl != nil {
		scfg.Policy = ctl
		fmt.Fprintf(os.Stderr, "# SLO controller armed: budget=%v\n", *slo)
	}
	srv, err := server.New(scfg)
	if err != nil {
		fatalf("%v", err)
	}

	if *loadtest {
		runLoadtest(srv, metrics, *benchmark, *pool, *clients, *requests, *perRequest)
		if ctl := sys.PolicyController(); ctl != nil {
			sn := ctl.Snapshot()
			fmt.Printf("policy: tier=%d (%s) requests=%d budget-misses=%d step-downs=%d step-ups=%d\n",
				sn.Tier, sn.TierName, sn.Requests, sn.BudgetMisses, sn.StepDowns, sn.StepUps)
		}
		if err := sys.Close(); err != nil {
			fatalf("closing cache: %v", err)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "# serving on http://%s (POST /v1/classify; /healthz /readyz /metrics)\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "# %s: draining (in-flight requests finish, new ones are refused)\n", sig)
	case err := <-errc:
		fatalf("%v", err)
	}

	// Graceful drain: refuse new classify work first, then stop accepting
	// connections, then wait out the in-flight requests and the batcher.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fatalf("shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fatalf("drain: %v", err)
	}
	// Flush the write-behind tail so the next process restarts warm.
	if err := sys.Close(); err != nil {
		fatalf("closing cache: %v", err)
	}
	fmt.Fprintln(os.Stderr, "# drained cleanly")
}

// runLoadtest serves on a loopback port and drives the server in-process.
func runLoadtest(srv *server.Server, metrics *telemetry.Metrics, benchmark string, pool, clients, requests, perRequest int) {
	images, _, err := polygraph.TestImages(benchmark, pool)
	if err != nil {
		fatalf("loading test images: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	res, err := server.RunLoad(context.Background(), server.LoadConfig{
		URL:              "http://" + ln.Addr().String(),
		Images:           images,
		Concurrency:      clients,
		Requests:         requests,
		ImagesPerRequest: perRequest,
	})
	if err != nil {
		fatalf("loadtest: %v", err)
	}
	fmt.Println(res)
	fmt.Printf("batcher: %d batches over %d images, %d coalesced; decisions: %d reliable / %d escalated\n",
		metrics.Batches.Value(), metrics.Images.Value(), metrics.Coalesced.Value(),
		metrics.Reliable.Value(), metrics.Escalated.Value())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fatalf("shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fatalf("drain: %v", err)
	}
	if res.Failed > 0 {
		fatalf("loadtest: %d requests failed", res.Failed)
	}
}

// validateBackends checks the -backend/-late-backend flag values up front so
// misuse is a usage error (exit 2) rather than a build failure deep inside
// polygraph.Build.
func validateBackends(backend, late string) error {
	if _, err := core.ParseBackend(backend); err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	if _, err := core.ParseBackend(late); err != nil {
		return fmt.Errorf("-late-backend: %w", err)
	}
	return nil
}

// validateCluster checks the -node-id/-peers pair up front so misuse is a
// usage error (exit 2) rather than a failure deep inside polygraph.Build.
// It returns the parsed membership map, or nil when clustering is off.
func validateCluster(nodeID, peers string) (map[string]string, error) {
	if nodeID == "" && peers == "" {
		return nil, nil
	}
	if nodeID == "" || peers == "" {
		return nil, fmt.Errorf("-node-id and -peers must be set together")
	}
	m, err := parsePeers(peers)
	if err != nil {
		return nil, err
	}
	if _, ok := m[nodeID]; !ok {
		return nil, fmt.Errorf("-node-id %q does not appear in -peers", nodeID)
	}
	if len(m) < 2 {
		return nil, fmt.Errorf("-peers must list at least two nodes, got %d", len(m))
	}
	return m, nil
}

// parsePeers parses a comma-separated id=host:port membership list.
func parsePeers(s string) (map[string]string, error) {
	m := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=host:port", part)
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("-peers entry %q: %v", part, err)
		}
		if _, dup := m[id]; dup {
			return nil, fmt.Errorf("-peers lists node id %q twice", id)
		}
		m[id] = addr
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return m, nil
}

// validateSLO rejects an explicitly requested non-positive SLO: leaving the
// flag unset serves statically, but "-slo 0" asks for a controller with no
// budget — a usage error, not a mode.
func validateSLO(set bool, d time.Duration) error {
	if set && d <= 0 {
		return fmt.Errorf("-slo must be a positive duration, got %v", d)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pgmr-serve: "+format+"\n", args...)
	os.Exit(1)
}
