// Package experiments contains one runner per table and figure of the
// PolygraphMR paper's evaluation (DESIGN.md §3 maps each experiment to the
// modules it exercises). Each runner produces a Result whose rows mirror
// the series the paper reports; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/perf"
)

// Context carries the shared state of an experiment run: the model zoo
// (with its trained-member and recorded-output caches), the dataset profile
// and the GPU cost model.
type Context struct {
	Zoo *model.Zoo
	GPU perf.GPU

	// Workers caps the worker pool of the systems the serving, caching,
	// cluster and SLO experiments build; 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// CacheMB is the budget in MiB of the prediction cache the ext-caching2
	// and ext-cluster experiments attach, and ZipfS the skew exponent (> 1)
	// of their duplicate-heavy workload. CacheTTL is ext-caching2's entry
	// TTL (0 = entries never expire).
	CacheMB  int
	CacheTTL time.Duration
	ZipfS    float64

	// L2Dir, when non-empty, is where the ext-caching2 experiment keeps
	// its persistent L2 tier; empty selects a run-scoped temp directory.
	L2Dir string

	// SLO is the per-request latency budget the ext-slo experiment steers
	// the adaptive cascade to (must be > 0; default 50ms — enough headroom
	// over the serving tail-noise floor of a small shared-core machine
	// that the budget is attainable at all).
	SLO time.Duration

	// designs memoizes greedy designs per (benchmark, size).
	designs map[string]*core.Design
}

// NewContext builds a context on the default zoo (the committed testdata/zoo,
// PGMR_FULL-selected profile) and the TITAN-X-like GPU model.
func NewContext() *Context {
	return &Context{
		Zoo: model.DefaultZoo(), GPU: perf.TitanX(),
		CacheMB: 64, ZipfS: 1.1, SLO: 50 * time.Millisecond,
		designs: map[string]*core.Design{},
	}
}

// Profile returns the active dataset profile.
func (c *Context) Profile() dataset.Profile { return c.Zoo.Profile }

// CandidatePool returns the preprocessor candidate pool for greedy design
// (model.CandidatePool).
func (c *Context) CandidatePool() []model.Variant { return model.CandidatePool() }

// Design returns the memoized greedy n-member design for a benchmark.
func (c *Context) Design(b model.Benchmark, n int) (*core.Design, error) {
	key := fmt.Sprintf("%s/%d", b.Name, n)
	if d, ok := c.designs[key]; ok {
		return d, nil
	}
	d, err := core.GreedyDesign(c.Zoo, b, c.CandidatePool(), n)
	if err != nil {
		return nil, err
	}
	c.designs[key] = d
	return d, nil
}

// Result is a rendered experiment outcome.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// CacheTiers is the machine-readable cache-tier summary attached by
	// ext-caching2; nil elsewhere. It reaches pgmr-bench's -json
	// output verbatim, so dashboards can track tier behavior without parsing
	// table rows.
	CacheTiers *CacheTierStats `json:",omitempty"`
}

// CacheTierStats summarizes prediction-cache traffic per tier after an
// experiment's final pass. Promotions equals L2Hits (every disk hit is
// promoted into memory); FlushBacklog is the write-behind queue depth at
// snapshot time.
type CacheTierStats struct {
	L1Hits       uint64
	L2Hits       uint64
	Misses       uint64
	Coalesced    uint64
	Promotions   uint64
	FlushBacklog int64
	L2Flushed    uint64
	L2Dropped    uint64
	Entries      int
	L2Entries    int
}

// cacheTierStats converts a cache snapshot into the JSON summary.
func cacheTierStats(st core.CacheStats) *CacheTierStats {
	return &CacheTierStats{
		L1Hits:       st.Hits - st.L2Hits,
		L2Hits:       st.L2Hits,
		Misses:       st.Misses,
		Coalesced:    st.Coalesced,
		Promotions:   st.L2Hits,
		FlushBacklog: st.L2Backlog,
		L2Flushed:    st.L2Flushed,
		L2Dropped:    st.L2Dropped,
		Entries:      st.Entries,
		L2Entries:    st.L2Entries,
	}
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-form note line.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders an aligned plain-text table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Runner executes one experiment.
type Runner func(*Context) (*Result, error)

// registry maps experiment ids to runners, populated by the fig_*.go files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns all experiment ids in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(ctx *Context, id string) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(ctx)
}

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// f3 formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
