// Package telemetry is a small, dependency-free metrics layer for the
// serving subsystem: atomic counters, gauges, and fixed-bucket histograms
// collected in a Registry that renders the Prometheus text exposition
// format. It exists so the server can expose /metrics without pulling a
// client library into the module (the repo is stdlib-only by policy).
//
// The package has two levels: the generic Registry/Counter/Gauge/Histogram
// primitives in this file, and the domain Metrics bundle (metrics.go) that
// pre-registers every series the PolygraphMR serving path reports —
// request/response counters, batch-size and latency histograms and
// decision outcomes (reliable vs. escalated, per-member agreement).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a metric at
// registration time.
type Label struct {
	Name, Value string
}

// Counter is a monotonically increasing counter. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with a sum and a count, matching
// the Prometheus histogram type (cumulative le buckets plus a +Inf bucket).
// Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, the sum and the count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.count
}

// LinearBuckets returns n buckets starting at start, each width apart.
func LinearBuckets(start, width float64, n int) []float64 {
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start + width*float64(i)
	}
	return bs
}

// ExponentialBuckets returns n buckets starting at start, each factor
// larger than the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// metric is one registered series: a counter, gauge or histogram plus its
// rendered label string.
type metric struct {
	labels string // `code="200"` — already escaped and sorted, "" when bare
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name for HELP/TYPE rendering.
type family struct {
	name, help, kind string
	metrics          []*metric
}

// Registry holds registered metrics and renders them. Registration and
// rendering are mutex-guarded; the returned metric handles are lock-free
// (counters, gauges) or internally locked (histograms).
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(name, help, kind string, labels []Label) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	for _, m := range f.metrics {
		if m.labels == ls {
			panic(fmt.Sprintf("telemetry: duplicate metric %s{%s}", name, ls))
		}
	}
	m := &metric{labels: ls}
	f.metrics = append(f.metrics, m)
	return m
}

// Counter registers (and returns) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, "counter", labels)
	m.c = &Counter{}
	return m.c
}

// Gauge registers (and returns) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, "gauge", labels)
	m.g = &Gauge{}
	return m.g
}

// Histogram registers (and returns) a histogram series with the given
// ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	m := r.register(name, help, "histogram", labels)
	m.h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	return m.h
}

// renderLabels formats constant labels sorted by name: `a="1",b="2"`.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%q", l.Name, escape(l.Value))
	}
	return strings.Join(parts, ",")
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// series renders `name{labels}` (or bare name), optionally merging extra
// label text (used for histogram le buckets).
func series(name, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// formatFloat renders a float the way Prometheus expects: %g, with the
// +Inf spelling for the overflow bucket bound.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	for i, name := range r.order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escape(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, m := range f.metrics {
			switch {
			case m.c != nil:
				if _, err := fmt.Fprintf(w, "%s %d\n", series(f.name, m.labels, ""), m.c.Value()); err != nil {
					return err
				}
			case m.g != nil:
				if _, err := fmt.Fprintf(w, "%s %d\n", series(f.name, m.labels, ""), m.g.Value()); err != nil {
					return err
				}
			case m.h != nil:
				cum, sum, count := m.h.snapshot()
				for i, bound := range m.h.bounds {
					le := fmt.Sprintf("le=%q", formatFloat(bound))
					if _, err := fmt.Fprintf(w, "%s %d\n", series(f.name+"_bucket", m.labels, le), cum[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", series(f.name+"_bucket", m.labels, `le="+Inf"`), cum[len(cum)-1]); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %s\n", series(f.name+"_sum", m.labels, ""), formatFloat(sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", series(f.name+"_count", m.labels, ""), count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
