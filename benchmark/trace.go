package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	polygraph "repro"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one. The seams the
// server calls the backend through carry no request identity, so spans
// recorded there have Req 0 and are attributed by Parent alone. N is the
// number of images the span worked on.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory while switched on. It is recorded from the
// benchmark's own files only, around the calls into each layer; a nil
// tracer records nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	forwards []float64 // successful forward round trips, seconds
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) span(name, parent string, req uint64, start, end time.Time, n int) {
	t.add(span{Name: name, Parent: parent, Req: req, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: n})
}

// forward is the cluster layer's ObserveForward hook.
func (t *tracer) forward(d time.Duration, ok bool) {
	if !t.enabled() || !ok {
		return
	}
	t.mu.Lock()
	t.forwards = append(t.forwards, d.Seconds())
	t.mu.Unlock()
}

// take switches the tracer off and hands over what it recorded.
func (t *tracer) take() (spans []span, forwards []float64) {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, forwards = t.spans, t.forwards
	t.spans, t.forwards = nil, nil
	return spans, forwards
}

// tracedHandler is the seam in front of server.Handler().
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.enabled() {
		h.inner.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.tr.span("server.handler", "client.request", id, start, time.Now(), 0)
}

// tracedBackend is the seam between internal/server and the root package:
// it times the calls the server makes into *polygraph.System and passes
// every other method (the reporter interfaces) straight through.
type tracedBackend struct {
	*polygraph.System
	tr *tracer
}

func (b *tracedBackend) ClassifyBatchContext(ctx context.Context, images []polygraph.Image) ([]polygraph.Prediction, error) {
	if !b.tr.enabled() {
		return b.System.ClassifyBatchContext(ctx, images)
	}
	start := time.Now()
	preds, err := b.System.ClassifyBatchContext(ctx, images)
	b.tr.span("polygraph.classify_batch", "server.handler", 0, start, time.Now(), len(images))
	return preds, err
}

func (b *tracedBackend) CacheLookup(im polygraph.Image) (polygraph.Prediction, bool) {
	if !b.tr.enabled() {
		return b.System.CacheLookup(im)
	}
	start := time.Now()
	p, ok := b.System.CacheLookup(im)
	b.tr.span("polygraph.cache_lookup", "server.handler", 0, start, time.Now(), 1)
	return p, ok
}

func (b *tracedBackend) CacheStats() polygraph.CacheStats {
	if !b.tr.enabled() {
		return b.System.CacheStats()
	}
	start := time.Now()
	st := b.System.CacheStats()
	b.tr.span("polygraph.cache_stats", "server.handler", 0, start, time.Now(), 0)
	return st
}

// selfSeconds is a span's self time: its duration minus the part of its
// interval that the given child spans cover (overlapping children are
// counted once, children are clipped to the parent).
func selfSeconds(parent span, children []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return float64(parent.End-parent.Start-covered) / 1e9
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
