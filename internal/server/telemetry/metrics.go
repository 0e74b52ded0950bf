package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Metrics is the pre-registered series bundle for the PolygraphMR serving
// subsystem. Everything the server and the dynamic batcher report flows
// through one of these handles, so /metrics is a single-registry render.
type Metrics struct {
	Registry *Registry

	// HTTP envelope.
	Requests       *Counter   // every request that reached the classify handler
	Rejected       *Counter   // load-shed with 429 (admission queue full)
	InFlight       *Gauge     // classify requests currently being served
	QueueDepth     *Gauge     // items waiting in the batcher's admission queue
	RequestSeconds *Histogram // classify request wall-clock latency

	// Dynamic batcher.
	Batches   *Counter   // ClassifyBatch calls issued by the batcher
	Coalesced *Counter   // batches that coalesced more than one queue item
	Images    *Counter   // images classified through the batcher
	BatchSize *Histogram // images per ClassifyBatch call

	// Decision outcomes (paper Layer-3 accounting).
	Reliable  *Counter   // predictions that passed the reliability gate
	Escalated *Counter   // predictions flagged for escalation
	Agreement *Histogram // accepted member votes for the winning label
	Activated *Histogram // member networks consulted per decision

	// Prediction cache (internal/cache). Hits/Misses count the server's
	// pre-admission probe outcomes; the gauges mirror the backend cache's
	// own cumulative counters and occupancy, refreshed by ObserveCache
	// after every dispatched batch and before every scrape.
	CacheHits      *Counter // images answered from the cache before admission
	CacheMisses    *Counter // probed images that had to be enqueued
	CacheCoalesced *Gauge   // inputs served by inflight coalescing / batch dedup
	CacheEntries   *Gauge   // predictions currently cached
	CacheBytes     *Gauge   // bytes currently charged against the cache budget

	// Persistent L2 cache tier (internal/cache/persist). All mirrored from
	// the backend cache's cumulative counters by ObserveCache; zero when
	// the server runs without a disk tier.
	CacheL2Hits    *Gauge // decisions served from disk and promoted to memory
	CacheL2Entries *Gauge // live records indexed on disk
	CacheL2Bytes   *Gauge // live record bytes on disk
	CacheL2Backlog *Gauge // write-behind records queued, not yet flushed
	CacheL2Flushed *Gauge // records made durable by the flusher (cumulative)
	CacheL2Dropped *Gauge // records lost to backpressure or write errors (cumulative)

	// ABFT verification (DESIGN.md §10). Cumulative counters mirrored from
	// the system's verification sink after every batch dispatch, like the
	// cache gauges: detected faults caught in kernel epilogues, split by
	// whether re-execution corrected them.
	AbftChecks        *Gauge // checksum comparisons performed
	AbftDetected      *Gauge // checksum mismatches detected
	AbftCorrected     *Gauge // detected faults cleared by re-execution
	AbftUncorrectable *Gauge // detected faults that persisted (votes abstained)

	// Admission queue wait: how long each image sat in the batcher queue
	// between enqueue and dispatch.
	QueueWait *Histogram // pgmr_queue_wait_seconds

	// Cluster routing (internal/cluster, DESIGN.md §13). The counters are
	// advanced by deltas computed against the backend's cumulative snapshot
	// after every batch dispatch; all zero when the server runs unclustered.
	ClusterOwned         *Counter   // images computed locally as ring owner
	ClusterForwarded     *Counter   // images answered by their remote owner
	ClusterFallback      *Counter   // images computed locally because the owner was unreachable
	ClusterServed        *Counter   // peer requests answered as owner
	ClusterForwardErrors *Counter   // failed forward exchanges
	ClusterPeersUp       *Gauge     // remote peers currently accepting traffic
	ClusterPeersTotal    *Gauge     // remote peers configured
	ClusterConns         *Gauge     // pooled peer connections established
	ClusterForwardOK     *Counter   // forwarded exchanges that succeeded
	ClusterForwardFailed *Counter   // forwarded exchanges that failed
	ClusterForwardSecs   *Histogram // pgmr_cluster_forward_seconds

	// SLO policy controller (internal/policy, DESIGN.md §12). Mirrored from
	// the controller snapshot after every batch dispatch; all zero when the
	// server runs without a policy.
	PolicyTier         *Gauge // current degradation tier (0 = static)
	PolicyStageDepth   *Gauge // members activated through the last observed stage
	PolicyMaxBatch     *Gauge // last planned max batch size
	PolicyBudgetMisses *Gauge // requests that exceeded the SLO (cumulative)
	PolicyEscalations  *Gauge // escalation stages executed (cumulative)
	PolicyStepDowns    *Gauge // tier step-downs (cumulative)
	PolicyStepUps      *Gauge // tier step-ups (cumulative)

	mu          sync.Mutex
	responses   map[int]*Counter // responses by HTTP status code
	policyRoles map[string]*Gauge
	stageCosts  map[string]*Gauge
	lastCluster ClusterSample // previous cumulative snapshot, for counter deltas
}

// NewMetrics builds a bundle on a fresh registry. maxMembers sizes the
// agreement/activation histograms (one bucket per possible member count);
// values below 2 fall back to the paper's 8-member ceiling.
func NewMetrics(maxMembers int) *Metrics {
	if maxMembers < 2 {
		maxMembers = 8
	}
	r := NewRegistry()
	latency := ExponentialBuckets(0.0005, 2, 14) // 0.5ms .. 4.1s
	m := &Metrics{
		Registry: r,

		Requests:       r.Counter("pgmr_serve_requests_total", "Classify requests accepted by the handler."),
		Rejected:       r.Counter("pgmr_serve_rejected_total", "Classify requests load-shed with 429 because the admission queue was full."),
		InFlight:       r.Gauge("pgmr_serve_in_flight", "Classify requests currently being served."),
		QueueDepth:     r.Gauge("pgmr_serve_queue_depth", "Images waiting in the batcher admission queue."),
		RequestSeconds: r.Histogram("pgmr_serve_request_seconds", "Classify request latency in seconds.", latency),

		Batches:   r.Counter("pgmr_serve_batches_total", "ClassifyBatch calls issued by the dynamic batcher."),
		Coalesced: r.Counter("pgmr_serve_coalesced_batches_total", "Batches that coalesced more than one queued image."),
		Images:    r.Counter("pgmr_serve_images_total", "Images classified through the dynamic batcher."),
		BatchSize: r.Histogram("pgmr_serve_batch_size", "Images per ClassifyBatch call.", ExponentialBuckets(1, 2, 8)),

		Reliable:  r.Counter("pgmr_decisions_total", "Decision outcomes by reliability verdict.", Label{"outcome", "reliable"}),
		Escalated: r.Counter("pgmr_decisions_total", "Decision outcomes by reliability verdict.", Label{"outcome", "escalated"}),
		Agreement: r.Histogram("pgmr_decision_agreement", "Accepted member votes for the winning label.", LinearBuckets(1, 1, maxMembers)),
		Activated: r.Histogram("pgmr_decision_activated", "Member networks consulted per decision (RADE staged activation).", LinearBuckets(1, 1, maxMembers)),

		CacheHits:      r.Counter("pgmr_cache_hits_total", "Images served from the prediction cache by the pre-admission probe."),
		CacheMisses:    r.Counter("pgmr_cache_misses_total", "Probed images that missed the prediction cache and entered the admission queue."),
		CacheCoalesced: r.Gauge("pgmr_cache_coalesced", "Inputs served by inflight coalescing or intra-batch dedup (cumulative, mirrored from the cache)."),
		CacheEntries:   r.Gauge("pgmr_cache_entries", "Predictions currently resident in the cache."),
		CacheBytes:     r.Gauge("pgmr_cache_bytes", "Bytes currently charged against the prediction-cache budget."),

		CacheL2Hits:    r.Gauge("pgmr_cache_l2_hits", "Decisions served from the persistent cache tier and promoted to memory (cumulative)."),
		CacheL2Entries: r.Gauge("pgmr_cache_l2_entries", "Live records indexed in the persistent cache tier."),
		CacheL2Bytes:   r.Gauge("pgmr_cache_l2_bytes", "Live record bytes in the persistent cache tier."),
		CacheL2Backlog: r.Gauge("pgmr_cache_l2_backlog", "Write-behind records queued for the persistent tier, not yet flushed."),
		CacheL2Flushed: r.Gauge("pgmr_cache_l2_flushed", "Records made durable by the write-behind flusher (cumulative)."),
		CacheL2Dropped: r.Gauge("pgmr_cache_l2_dropped", "Records dropped by write-behind backpressure or write errors (cumulative)."),

		AbftChecks:        r.Gauge("pgmr_abft_checks", "ABFT checksum comparisons performed (cumulative, mirrored from the system)."),
		AbftDetected:      r.Gauge("pgmr_abft_detected", "ABFT checksum mismatches detected in kernel epilogues (cumulative)."),
		AbftCorrected:     r.Gauge("pgmr_abft_corrected", "Detected faults cleared by bounded re-execution (cumulative)."),
		AbftUncorrectable: r.Gauge("pgmr_abft_uncorrectable", "Detected faults that persisted across re-execution; the member's votes abstained (cumulative)."),

		QueueWait: r.Histogram("pgmr_queue_wait_seconds", "Time images spent in the batcher admission queue before dispatch.", latency),

		ClusterOwned:         r.Counter("pgmr_cluster_owned_total", "Images computed locally as their consistent-hash ring owner."),
		ClusterForwarded:     r.Counter("pgmr_cluster_forwarded_total", "Images answered by their remote ring owner."),
		ClusterFallback:      r.Counter("pgmr_cluster_fallback_total", "Images computed locally because their remote owner was unreachable."),
		ClusterServed:        r.Counter("pgmr_cluster_served_total", "Peer classify requests answered by this node as owner."),
		ClusterForwardErrors: r.Counter("pgmr_cluster_forward_errors_total", "Forward exchanges that failed (timeout, dead peer, rejection)."),
		ClusterPeersUp:       r.Gauge("pgmr_cluster_peers_up", "Remote cluster peers currently accepting traffic (breaker closed)."),
		ClusterPeersTotal:    r.Gauge("pgmr_cluster_peers_total", "Remote cluster peers configured."),
		ClusterConns:         r.Gauge("pgmr_cluster_conns", "Pooled peer connections currently established."),
		ClusterForwardOK:     r.Counter("pgmr_cluster_forward_total", "Forwarded classify exchanges by outcome.", Label{"outcome", "ok"}),
		ClusterForwardFailed: r.Counter("pgmr_cluster_forward_total", "Forwarded classify exchanges by outcome.", Label{"outcome", "error"}),
		ClusterForwardSecs:   r.Histogram("pgmr_cluster_forward_seconds", "Latency of forwarded classify exchanges in seconds.", latency),

		PolicyTier:         r.Gauge("pgmr_policy_tier", "Current SLO-controller degradation tier (0 = static configuration)."),
		PolicyStageDepth:   r.Gauge("pgmr_policy_stage_depth", "Members activated through the last policy-observed stage."),
		PolicyMaxBatch:     r.Gauge("pgmr_policy_max_batch", "Last max batch size planned by the SLO controller."),
		PolicyBudgetMisses: r.Gauge("pgmr_policy_budget_misses", "Requests whose latency exceeded the SLO budget (cumulative, mirrored)."),
		PolicyEscalations:  r.Gauge("pgmr_policy_escalations", "Escalation stages executed under the policy (cumulative, mirrored)."),
		PolicyStepDowns:    r.Gauge("pgmr_policy_step_downs", "Tier step-downs taken by the SLO controller (cumulative, mirrored)."),
		PolicyStepUps:      r.Gauge("pgmr_policy_step_ups", "Tier step-ups taken by the SLO controller (cumulative, mirrored)."),

		responses:   map[int]*Counter{},
		policyRoles: map[string]*Gauge{},
		stageCosts:  map[string]*Gauge{},
	}
	return m
}

// ObserveAbft refreshes the ABFT verification gauges from the system's
// cumulative counters.
func (m *Metrics) ObserveAbft(checks, detected, corrected, uncorrectable uint64) {
	m.AbftChecks.Set(int64(checks))
	m.AbftDetected.Set(int64(detected))
	m.AbftCorrected.Set(int64(corrected))
	m.AbftUncorrectable.Set(int64(uncorrectable))
}

// CacheSample is one snapshot of the backend cache's cumulative counters
// and occupancy. The L2 fields stay zero for memory-only caches, which
// parks the pgmr_cache_l2_* gauges at zero. (The per-request probe
// outcomes are not part of it: the handler adds them to CacheHits and
// CacheMisses directly.)
type CacheSample struct {
	Coalesced uint64
	Entries   int
	Bytes     int64
	// Persistent-tier counters.
	L2Hits               uint64
	L2Entries            int
	L2Bytes              int64
	L2Backlog            int64
	L2Flushed, L2Dropped uint64
}

// ObserveCache refreshes the cache gauges from a snapshot.
func (m *Metrics) ObserveCache(c CacheSample) {
	m.CacheCoalesced.Set(int64(c.Coalesced))
	m.CacheEntries.Set(int64(c.Entries))
	m.CacheBytes.Set(c.Bytes)
	m.CacheL2Hits.Set(int64(c.L2Hits))
	m.CacheL2Entries.Set(int64(c.L2Entries))
	m.CacheL2Bytes.Set(c.L2Bytes)
	m.CacheL2Backlog.Set(c.L2Backlog)
	m.CacheL2Flushed.Set(int64(c.L2Flushed))
	m.CacheL2Dropped.Set(int64(c.L2Dropped))
}

// ClusterSample is one cumulative snapshot of the cluster routing counters,
// mirrored from the clustered backend after each batch dispatch. Declared
// here (rather than importing internal/cluster) so telemetry stays a leaf
// package.
type ClusterSample struct {
	Owned, Forwarded, Fallback uint64
	Served, ForwardErrors      uint64
	PeersUp, PeersTotal, Conns int
}

// ObserveCluster advances the pgmr_cluster_* counters by the delta between
// this cumulative snapshot and the previous one, and refreshes the peer
// gauges. Counters never move backwards: a snapshot that regresses (e.g.
// after a backend swap) only resets the baseline.
func (m *Metrics) ObserveCluster(s ClusterSample) {
	m.mu.Lock()
	last := m.lastCluster
	m.lastCluster = s
	m.mu.Unlock()
	delta := func(c *Counter, now, prev uint64) {
		if now > prev {
			c.Add(now - prev)
		}
	}
	delta(m.ClusterOwned, s.Owned, last.Owned)
	delta(m.ClusterForwarded, s.Forwarded, last.Forwarded)
	delta(m.ClusterFallback, s.Fallback, last.Fallback)
	delta(m.ClusterServed, s.Served, last.Served)
	delta(m.ClusterForwardErrors, s.ForwardErrors, last.ForwardErrors)
	m.ClusterPeersUp.Set(int64(s.PeersUp))
	m.ClusterPeersTotal.Set(int64(s.PeersTotal))
	m.ClusterConns.Set(int64(s.Conns))
}

// ObserveForward records one forwarded classify exchange — the hook a
// clustered backend's ObserveForward option points at.
func (m *Metrics) ObserveForward(d time.Duration, ok bool) {
	if ok {
		m.ClusterForwardOK.Inc()
	} else {
		m.ClusterForwardFailed.Inc()
	}
	m.ClusterForwardSecs.Observe(d.Seconds())
}

// ObserveDecision ingests one decision outcome: the reliability verdict,
// the accepted-vote count behind it, and how many members ran.
func (m *Metrics) ObserveDecision(reliable bool, agreement, activated int) {
	if reliable {
		m.Reliable.Inc()
	} else {
		m.Escalated.Inc()
	}
	m.Agreement.Observe(float64(agreement))
	m.Activated.Observe(float64(activated))
}

// ObserveResponse records one finished HTTP classify request.
func (m *Metrics) ObserveResponse(code int, latency time.Duration) {
	m.Response(code).Inc()
	m.RequestSeconds.Observe(latency.Seconds())
}

// Response returns (registering on first use) the response counter for one
// HTTP status code: pgmr_serve_responses_total{code="NNN"}.
func (m *Metrics) Response(code int) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.responses[code]
	if !ok {
		c = m.Registry.Counter("pgmr_serve_responses_total", "Classify responses by HTTP status code.",
			Label{"code", fmt.Sprintf("%d", code)})
		m.responses[code] = c
	}
	return c
}

// PolicyStageCost is one exported cost-model cell: the EWMA per-(image·
// member) latency of a stage on a backend. Declared here (rather than
// importing internal/policy) so telemetry stays a leaf package.
type PolicyStageCost struct {
	Stage   int
	Backend string
	Micros  float64
}

// PolicySample is one snapshot of the SLO controller, mirrored into the
// pgmr_policy_* gauges after each batch dispatch. The server converts the
// controller's own snapshot type into this.
type PolicySample struct {
	Tier         int
	StageDepth   int
	EarlyBackend string
	LateBackend  string
	MaxBatch     int
	BudgetMisses uint64
	Escalations  uint64
	StepDowns    uint64
	StepUps      uint64
	StageCosts   []PolicyStageCost
}

// ObservePolicy refreshes the pgmr_policy_* gauges from one controller
// snapshot. The chosen-backend series (pgmr_policy_backend{role,backend})
// and per-stage cost EWMAs (pgmr_policy_stage_cost_ns{stage,backend}) are
// registered lazily, like the per-code response counters.
func (m *Metrics) ObservePolicy(p PolicySample) {
	m.PolicyTier.Set(int64(p.Tier))
	m.PolicyStageDepth.Set(int64(p.StageDepth))
	m.PolicyMaxBatch.Set(int64(p.MaxBatch))
	m.PolicyBudgetMisses.Set(int64(p.BudgetMisses))
	m.PolicyEscalations.Set(int64(p.Escalations))
	m.PolicyStepDowns.Set(int64(p.StepDowns))
	m.PolicyStepUps.Set(int64(p.StepUps))
	m.setPolicyRole("early", p.EarlyBackend)
	m.setPolicyRole("late", p.LateBackend)
	for _, sc := range p.StageCosts {
		m.stageCostGauge(sc.Stage, sc.Backend).Set(int64(sc.Micros * 1000))
	}
}

// setPolicyRole marks which backend a cascade role (early/late) currently
// uses: the chosen pgmr_policy_backend{role,backend} series reads 1, every
// other backend seen for that role reads 0.
func (m *Metrics) setPolicyRole(role, backend string) {
	key := role + "/" + backend
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.policyRoles[key]; !ok {
		m.policyRoles[key] = m.Registry.Gauge("pgmr_policy_backend",
			"Backend currently selected for a cascade role (1 = selected).",
			Label{"role", role}, Label{"backend", backend})
	}
	prefix := role + "/"
	for k, g := range m.policyRoles {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			if k == key {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
	}
}

// stageCostGauge returns (registering on first use) the per-stage cost gauge
// pgmr_policy_stage_cost_ns{stage="K",backend="B"}: the controller's EWMA
// per-(image·member) latency for that stage, in nanoseconds.
func (m *Metrics) stageCostGauge(stage int, backend string) *Gauge {
	key := fmt.Sprintf("%d/%s", stage, backend)
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.stageCosts[key]
	if !ok {
		g = m.Registry.Gauge("pgmr_policy_stage_cost_ns",
			"EWMA per-image-member stage latency from the SLO controller cost model, in nanoseconds.",
			Label{"stage", fmt.Sprintf("%d", stage)}, Label{"backend", backend})
		m.stageCosts[key] = g
	}
	return g
}

// ObserveBatch records one dynamic batch dispatch.
func (m *Metrics) ObserveBatch(size int) {
	m.Batches.Inc()
	if size > 1 {
		m.Coalesced.Inc()
	}
	m.Images.Add(uint64(size))
	m.BatchSize.Observe(float64(size))
}
