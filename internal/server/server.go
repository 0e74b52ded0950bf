// Package server is the production serving subsystem: an HTTP JSON API
// that feeds classification requests through a dynamic batcher into
// polygraph.ClassifyBatch, wrapped in the envelope a deployed reliability
// system needs — per-request deadlines honored via context, a bounded
// admission queue with load shedding (429 + Retry-After), graceful drain
// (in-flight requests finish, new ones are rejected), health/readiness
// probes, and a Prometheus-text /metrics endpoint backed by the
// internal/server/telemetry registry.
//
// Endpoints:
//
//	POST /v1/classify  {"image": {...}} or {"images": [...]}, optional "timeout_ms"
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once draining)
//	GET  /metrics      Prometheus text exposition
//
// The batcher is work-conserving and request-granular: it dispatches
// whatever requests are queued (up to Config.MaxBatch images) the moment the
// engine is free, so a lone request never waits and requests that arrive
// while a batch runs share the next ClassifyBatch call. A request is only
// split across calls when it alone exceeds the cap.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	polygraph "repro"
	"repro/internal/policy"
	"repro/internal/server/telemetry"
)

// Backend classifies batches of images — satisfied by *polygraph.System.
type Backend interface {
	ClassifyBatchContext(ctx context.Context, images []polygraph.Image) ([]polygraph.Prediction, error)
	InputShape() (channels, height, width int)
}

// CacheProber is the optional backend surface for the pre-admission
// prediction-cache probe — satisfied by *polygraph.System when Options.Cache
// is set. When the configured Backend implements it, the classify handler
// answers cached images before the admission queue, so hits never consume
// queue slots or batcher capacity and are served even while the queue is
// saturated and shedding load.
type CacheProber interface {
	CacheLookup(im polygraph.Image) (polygraph.Prediction, bool)
	CacheStats() polygraph.CacheStats
}

// AbftReporter is the optional backend surface for ABFT verification
// telemetry — satisfied by *polygraph.System when Options.Verified is set.
// When the configured Backend implements it and reports verification
// enabled, the batcher mirrors the cumulative verification counters into
// the pgmr_abft_* gauges after every dispatch.
type AbftReporter interface {
	Verified() bool
	AbftCounts() polygraph.AbftCounts
}

// ClusterReporter is the optional backend surface for scale-out cluster
// telemetry — satisfied by *polygraph.System when Options.Cluster is set.
// When the configured Backend implements it and reports clustered serving,
// every classify response carries the node's identity in the X-PGMR-Node
// header and the batcher mirrors the routing counters into the
// pgmr_cluster_* series after every dispatch.
type ClusterReporter interface {
	Clustered() bool
	ClusterNodeID() string
	ClusterStats() polygraph.ClusterStats
}

// Policy is the optional SLO batch planner — satisfied by
// *policy.Controller. When set, the batcher asks it for the batch cap
// before each collect (feeding it the live queue depth), reports per-item
// queue waits and per-request latencies back, and mirrors its snapshot into
// the pgmr_policy_* gauges after every dispatch.
type Policy interface {
	PlanBatch(queueDepth int) (maxBatch int)
	ObserveQueueWait(d time.Duration)
	ObserveRequest(latency time.Duration)
	Snapshot() policy.Snapshot
}

// cacheHeader reports the probe outcome per response: "hit" (every image
// answered from the cache), "miss" (none), or "coalesced" (a mix — the
// cached part rode along with the computed remainder). Absent when the
// backend has no cache.
const cacheHeader = "X-PGMR-Cache"

// nodeHeader names the cluster node that answered the request (the entry
// node — forwarded images still return through it). Absent when the backend
// is not clustered.
const nodeHeader = "X-PGMR-Node"

// Config parameterizes New. The zero value of every field except Backend is
// usable; see the field comments for defaults.
type Config struct {
	// Backend is the classification system behind the API. Required.
	Backend Backend
	// BatchWindow is ignored: the batcher is work-conserving and never
	// waits for batchmates.
	//
	// Deprecated: kept only so the frozen benchmark module compiles; the
	// next benchmark issue removes it.
	BatchWindow time.Duration
	// MaxBatch caps images per ClassifyBatch call. Default 64.
	MaxBatch int
	// QueueDepth bounds the admission queue in images; requests that would
	// overflow it are shed with 429. Default 256.
	QueueDepth int
	// MaxImagesPerRequest caps the images field of one request (413 above
	// it). Default 64.
	MaxImagesPerRequest int
	// DefaultDeadline applies to requests that carry no timeout_ms.
	// 0 means no server-imposed deadline. Default 30s.
	DefaultDeadline time.Duration
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds the request body. Default 64 MiB.
	MaxBodyBytes int64
	// Metrics receives everything the server observes. Default: a fresh
	// telemetry.NewMetrics(8) bundle.
	Metrics *telemetry.Metrics
	// Policy, when non-nil, supplies the max batch per collect instead of
	// the static MaxBatch, and receives the latency and queue-wait feedback
	// it steers by. nil serves with the static configuration.
	Policy Policy
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxImagesPerRequest <= 0 {
		c.MaxImagesPerRequest = 64
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewMetrics(8)
	}
	return c
}

// Server is a running serving subsystem: handlers plus the batcher
// goroutine. Create with New, expose via Handler, stop with Drain.
type Server struct {
	cfg     Config
	metrics *telemetry.Metrics

	queue chan []*item // one group per admitted request
	depth atomic.Int64 // reserved queue slots, ≤ cfg.QueueDepth

	draining    atomic.Bool
	inflight    sync.WaitGroup
	stop        chan struct{}
	stopOnce    sync.Once
	batcherDone chan struct{}
}

// New validates the config and starts the batcher.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: Config.Backend is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		metrics:     cfg.Metrics,
		queue:       make(chan []*item, cfg.QueueDepth),
		stop:        make(chan struct{}),
		batcherDone: make(chan struct{}),
	}
	go s.runBatcher()
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	exposition := s.metrics.Registry.Handler()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mirrorCache()
		exposition.ServeHTTP(w, r)
	})
	return mux
}

// mirrorCache refreshes the pgmr_cache_* occupancy and L2 gauges from the
// backend's cache. Reading the stats locks every cache shard, so it runs
// once per dispatched batch and per scrape, not per request.
func (s *Server) mirrorCache() {
	prober, ok := s.cfg.Backend.(CacheProber)
	if !ok {
		return
	}
	st := prober.CacheStats()
	s.metrics.ObserveCache(telemetry.CacheSample{
		Coalesced: st.Coalesced,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		L2Hits:    st.L2Hits,
		L2Entries: st.L2Entries,
		L2Bytes:   st.L2Bytes,
		L2Backlog: st.L2Backlog,
		L2Flushed: st.L2Flushed,
		L2Dropped: st.L2Dropped,
	})
}

// BeginDrain flips the server into draining mode: /readyz turns 503 and new
// classify requests are rejected, while requests already admitted keep
// running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully shuts the subsystem down: BeginDrain, wait for every
// in-flight request to finish (bounded by ctx), then stop the batcher. It
// returns ctx.Err() when the wait is cut short — in-flight work may then
// still be running.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.batcherDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// API payloads.

type imageJSON struct {
	Channels int       `json:"channels"`
	Height   int       `json:"height"`
	Width    int       `json:"width"`
	Pixels   []float64 `json:"pixels"`
}

func (j imageJSON) image() polygraph.Image {
	return polygraph.Image{Channels: j.Channels, Height: j.Height, Width: j.Width, Pixels: j.Pixels}
}

type classifyRequest struct {
	// Image carries a single-image request; Images a multi-image one.
	// Exactly one of the two must be set.
	Image  *imageJSON  `json:"image,omitempty"`
	Images []imageJSON `json:"images,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 selects the
	// server's default deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type predictionJSON struct {
	Label      int     `json:"label"`
	Reliable   bool    `json:"reliable"`
	Confidence float64 `json:"confidence"`
	Activated  int     `json:"activated"`
	Agreement  int     `json:"agreement"`
}

func toPredictionJSON(p polygraph.Prediction) predictionJSON {
	return predictionJSON{
		Label: p.Label, Reliable: p.Reliable, Confidence: p.Confidence,
		Activated: p.Activated, Agreement: p.Agreement,
	}
}

type classifyResponse struct {
	Prediction  *predictionJSON  `json:"prediction,omitempty"`
	Predictions []predictionJSON `json:"predictions,omitempty"`
	ElapsedMS   float64          `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleClassify is the admission-controlled, deadline-aware entry point of
// the classify API.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	respond := func(code int, payload any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(payload)
		latency := time.Since(start)
		s.metrics.ObserveResponse(code, latency)
		if s.cfg.Policy != nil {
			s.cfg.Policy.ObserveRequest(latency)
		}
	}
	fail := func(code int, format string, args ...any) {
		respond(code, errorResponse{Error: fmt.Sprintf(format, args...)})
	}

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, "use POST")
		return
	}

	// Admission gate 1: drain mode. The in-flight count is raised before
	// the flag is read, so Drain's Wait can never miss a request that saw
	// the flag unset.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		fail(http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.metrics.Requests.Inc()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	if cr, ok := s.cfg.Backend.(ClusterReporter); ok && cr.Clustered() {
		w.Header().Set(nodeHeader, cr.ClusterNodeID())
	}

	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			fail(http.StatusRequestEntityTooLarge, "request body exceeds the limit of %d bytes", tooLarge.Limit)
			return
		}
		fail(http.StatusBadRequest, "reading request: %v", err)
		return
	}
	req, err := decodeClassify(*body)
	releaseBody(body)
	if err != nil {
		fail(http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	single := req.Image != nil
	if single && len(req.Images) > 0 {
		fail(http.StatusBadRequest, `set "image" or "images", not both`)
		return
	}
	images := req.Images
	if single {
		images = []imageJSON{*req.Image}
	}
	if len(images) == 0 {
		fail(http.StatusBadRequest, "request carries no images")
		return
	}
	if len(images) > s.cfg.MaxImagesPerRequest {
		fail(http.StatusRequestEntityTooLarge, "%d images exceed the per-request limit of %d",
			len(images), s.cfg.MaxImagesPerRequest)
		return
	}
	wantC, wantH, wantW := s.cfg.Backend.InputShape()
	ims := make([]polygraph.Image, len(images))
	for i, j := range images {
		im := j.image()
		if err := im.Validate(); err != nil {
			fail(http.StatusBadRequest, "image %d: %v", i, err)
			return
		}
		if im.Channels != wantC || im.Height != wantH || im.Width != wantW {
			fail(http.StatusBadRequest, "image %d: shape %dx%dx%d does not match the served model input %dx%dx%d",
				i, im.Channels, im.Height, im.Width, wantC, wantH, wantW)
			return
		}
		ims[i] = im
	}

	// Pre-admission cache probe: cached images are answered here, before
	// any queue slot is reserved, so repeated traffic cannot displace new
	// work — and a fully cached request is served even when the admission
	// queue is saturated.
	preds := make([]predictionJSON, len(ims))
	served := make([]bool, len(ims))
	hits := 0
	if prober, ok := s.cfg.Backend.(CacheProber); ok {
		for i, im := range ims {
			if p, ok := prober.CacheLookup(im); ok {
				preds[i] = toPredictionJSON(p)
				served[i] = true
				hits++
				s.metrics.ObserveDecision(p.Reliable, p.Agreement, p.Activated)
			}
		}
		s.metrics.CacheHits.Add(uint64(hits))
		s.metrics.CacheMisses.Add(uint64(len(ims) - hits))
		switch {
		case hits == len(ims):
			w.Header().Set(cacheHeader, "hit")
		case hits > 0:
			w.Header().Set(cacheHeader, "coalesced")
		default:
			w.Header().Set(cacheHeader, "miss")
		}
	}
	if hits == len(ims) {
		resp := classifyResponse{ElapsedMS: float64(time.Since(start).Microseconds()) / 1000}
		if single {
			resp.Prediction = &preds[0]
		} else {
			resp.Predictions = preds
		}
		respond(http.StatusOK, resp)
		return
	}

	// Per-request deadline.
	ctx := r.Context()
	timeout := s.cfg.DefaultDeadline
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Admission gate 2: bounded queue with load shedding. The request's
	// uncached remainder is admitted all-or-nothing as one group. Cache
	// hits were answered above and consume nothing here.
	idxs := make([]int, 0, len(ims)-hits)
	for i := range ims {
		if !served[i] {
			ims[len(idxs)] = ims[i]
			idxs = append(idxs, i)
		}
	}
	items, ok := s.admit(ctx, ims[:len(idxs)])
	if !ok {
		s.metrics.Rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		fail(http.StatusTooManyRequests, "admission queue full (%d images)", s.cfg.QueueDepth)
		return
	}

	// Collect results in request order.
	for j, it := range items {
		i := idxs[j]
		select {
		case res := <-it.done:
			if res.err != nil {
				fail(statusFor(res.err), "image %d: %v", i, res.err)
				return
			}
			preds[i] = toPredictionJSON(res.pred)
		case <-ctx.Done():
			fail(statusFor(ctx.Err()), "image %d: %v", i, ctx.Err())
			return
		}
	}

	resp := classifyResponse{ElapsedMS: float64(time.Since(start).Microseconds()) / 1000}
	if single {
		resp.Prediction = &preds[0]
	} else {
		resp.Predictions = preds
	}
	respond(http.StatusOK, resp)
}

// policySample converts a controller snapshot into the telemetry mirror
// type (telemetry is a leaf package and cannot import internal/policy).
func policySample(sn policy.Snapshot) telemetry.PolicySample {
	ps := telemetry.PolicySample{
		Tier:         sn.Tier,
		StageDepth:   sn.StageDepth,
		EarlyBackend: sn.EarlyBackend,
		LateBackend:  sn.LateBackend,
		MaxBatch:     sn.MaxBatch,
		BudgetMisses: sn.BudgetMisses,
		Escalations:  sn.Escalations,
		StepDowns:    sn.StepDowns,
		StepUps:      sn.StepUps,
	}
	for _, sc := range sn.StageCosts {
		ps.StageCosts = append(ps.StageCosts, telemetry.PolicyStageCost{
			Stage: sc.Stage, Backend: sc.Backend, Micros: sc.Micros,
		})
	}
	return ps
}

// statusFor maps classification errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away or the server is shutting down.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
