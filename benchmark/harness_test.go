package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	polygraph "repro"
)

// packageDir is where the tests started; the smoke test moves the process
// to the repository root.
var packageDir, _ = os.Getwd()

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// 100 samples leave 1 beyond p99 and 5 beyond p95, 10 beyond p90.
	for _, tc := range []struct {
		n          int
		want, tail float64
	}{
		{100, 99, 90}, {200, 99, 95}, {1000, 99, 99}, {1000, 95, 95}, {20, 99, 50}, {199, 95, 90},
	} {
		if got := supportedTail(tc.n, tc.want); got != tc.tail {
			t.Errorf("supportedTail(%d, p%g) = p%g, want p%g", tc.n, tc.want, got, tc.tail)
		}
		if p := supportedTail(tc.n, tc.want); p > 50 && samplesBeyond(tc.n, p) < 10 {
			t.Errorf("supportedTail(%d, p%g) = p%g leaves only %d samples beyond", tc.n, tc.want, p, samplesBeyond(tc.n, p))
		}
	}
}

func TestWindowThroughput(t *testing.T) {
	// Ten 1-s windows at 100 images/s, one of them stalled to 10: the
	// trimmed mean does not move, the total over wall time would.
	p := &phase{span: 10e9}
	add := func(done, latency, images float64) {
		p.doneAt = append(p.doneAt, done)
		p.latency = append(p.latency, latency)
		p.images = append(p.images, images)
	}
	for w := 0; w < 10; w++ {
		n := 100
		if w == 3 {
			n = 10
		}
		for i := 0; i < n; i++ {
			add(float64(w)+float64(i+1)/float64(n), 1/float64(n), 1)
		}
	}
	add(10.5, 0.25, 1) // sent and answered after the deadline: outside every window
	if got := p.throughput(); math.Abs(got-100) > 1e-9 {
		t.Errorf("trimmed window throughput = %v, want 100", got)
	}
	// A request that straddles a window edge counts on both sides.
	rates := windowRates([]float64{0.5}, []float64{1.5}, []float64{32}, 2, 2)
	if math.Abs(rates[0]-16) > 1e-9 || math.Abs(rates[1]-16) > 1e-9 {
		t.Errorf("straddling request split as %v, want 16 and 16", rates)
	}
}

func TestMidMean(t *testing.T) {
	// Two modes of equal weight: the median sits on the edge of one of
	// them, the interquartile mean between the two.
	xs := []float64{50, 50, 50, 50, 60, 60, 60, 60}
	if got := midMean(xs); got != 55 {
		t.Errorf("midMean of two equal modes = %v, want 55", got)
	}
	// Tails do not move it.
	if got := midMean([]float64{1, 50, 50, 50, 50, 50, 50, 900}); got != 50 {
		t.Errorf("midMean with outliers = %v, want 50", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestZipfSamplerShape(t *testing.T) {
	const bodies = 4096
	seq := drawSequence(rand.New(rand.NewSource(7)), bodies, true)
	counts := make([]int, bodies)
	for _, b := range seq {
		counts[b]++
	}
	// P(rank k) ∝ (1+k)^-1.1; the head ranks carry their expected mass.
	norm := 0.0
	for k := 0; k < bodies; k++ {
		norm += math.Pow(float64(1+k), -1.1)
	}
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for k := 0; k < 3; k++ {
		want := math.Pow(float64(1+k), -1.1) / norm
		got := float64(sorted[k]) / float64(len(seq))
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("rank %d carries %.4f of the draws, want %.4f ± 10%%", k, got, want)
		}
	}
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	if distinct < bodies*9/10 {
		t.Errorf("only %d of %d bodies drawn in %d draws", distinct, bodies, len(seq))
	}
	// The cache-off order sends every body once per cycle.
	flat := drawSequence(rand.New(rand.NewSource(7)), 22, false)
	seen := map[int32]bool{}
	for _, b := range flat[:22] {
		seen[b] = true
	}
	if len(seen) != 22 {
		t.Errorf("first cycle of the permutation order holds %d of 22 bodies", len(seen))
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100e9}
	children := []span{
		{Start: 10e9, End: 30e9},
		{Start: 20e9, End: 40e9},   // overlaps the first: counted once
		{Start: 90e9, End: 120e9},  // clipped to the parent
		{Start: 200e9, End: 300e9}, // outside
	}
	if got := selfSeconds(parent, children); got != 60 {
		t.Errorf("self time = %v s, want 60", got)
	}
	if got := selfSeconds(parent, nil); got != 100 {
		t.Errorf("self time without children = %v s, want 100", got)
	}
}

func TestBudgetSharesSumToOne(t *testing.T) {
	in := budgetInput{
		client: 8.1e-3, handler: 7.6e-3, cache: 20e-6, queue: 4.9e-3, backend: 2.5e-3,
		forward: 0.3e-3, glue: 1e-5, preprocess: 2e-4, nnForward: 1.5e-3, engineSelf: 2e-4,
	}
	shares := budgetShares(in)
	if len(shares) != len(budgetParts) {
		t.Fatalf("%d shares, want %d", len(shares), len(budgetParts))
	}
	total := 0.0
	for _, part := range budgetParts {
		v, ok := shares["budget."+part+"_share"]
		if !ok {
			t.Errorf("no share for %s", part)
		}
		total += v
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01", total)
	}
}

func TestAggregateJoinsByRequest(t *testing.T) {
	spans := []span{
		{Name: "client.request", Req: 1, Start: 0, End: 10e6},
		{Name: "server.handler", Req: 1, Start: 1e6, End: 9e6},
		{Name: "client.request", Req: 2, Start: 0, End: 20e6}, // its handler span was not recorded
		{Name: "polygraph.classify_batch", Start: 2e6, End: 4e6, N: 1},
		{Name: "polygraph.classify_batch", Start: 2e6, End: 8e6, N: 3},
		{Name: "polygraph.cache_lookup", Start: 1e6, End: 1.5e6, N: 1},
	}
	st := aggregate(spans)
	if st.joined != 1 || math.Abs(st.transport-2e-3) > 1e-12 {
		t.Errorf("joined %d requests with transport %v, want 1 and 2 ms", st.joined, st.transport)
	}
	// Three of four images waited 6 ms, one waited 2 ms; they saw batches of 3, 3, 3 and 1.
	if math.Abs(st.batchWait-5e-3) > 1e-12 || math.Abs(st.batchSeen-2.5) > 1e-12 {
		t.Errorf("image-weighted wait %v and batch size %v, want 5 ms and 2.5", st.batchWait, st.batchSeen)
	}
}

// fakeOracle answers from the first pixel so traffic tests need no models.
type fakeOracle struct{}

func (fakeOracle) Classify(im polygraph.Image) (polygraph.Prediction, error) {
	return polygraph.Prediction{Label: int(im.Pixels[0] * 10), Reliable: true}, nil
}

func fakeBase(n int) ([]polygraph.Image, []int) {
	rng := rand.New(rand.NewSource(3))
	base := make([]polygraph.Image, n)
	labels := make([]int, n)
	for i := range base {
		px := make([]float64, 2*4*4)
		for p := range px {
			px[p] = rng.Float64()
		}
		base[i] = polygraph.Image{Channels: 2, Height: 4, Width: 4, Pixels: px}
		labels[i] = i % 10
	}
	return base, labels
}

func mustTraffic(t *testing.T, name string, seed int64) *traffic {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	base, labels := fakeBase(70)
	tr, err := newTraffic(w, seed, base, labels, fakeOracle{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func sameTraffic(a, b *traffic) bool {
	if len(a.bodies) != len(b.bodies) || len(a.seq) != len(b.seq) {
		return false
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			return false
		}
	}
	for i := range a.seq {
		if a.seq[i] != b.seq[i] {
			return false
		}
	}
	return true
}

func TestSeededGenerator(t *testing.T) {
	for _, name := range []string{"batch32_f64", "zipf_cached_int8"} {
		a, b, c := mustTraffic(t, name, 5), mustTraffic(t, name, 5), mustTraffic(t, name, 6)
		if !sameTraffic(a, b) {
			t.Errorf("%s: the same seed gave different bodies or order", name)
		}
		if sameTraffic(a, c) {
			t.Errorf("%s: another seed gave the same bodies and order", name)
		}
	}
	// The cluster workload must consume the single-node Zipf workload's
	// exact image sequence: same bodies, same order.
	if !sameTraffic(mustTraffic(t, "zipf_cached_int8", 9), mustTraffic(t, "cluster3_zipf_int8", 9)) {
		t.Error("cluster3_zipf_int8 and zipf_cached_int8 differ on the same seed")
	}
}

func TestBodiesParseBackToThePoolImages(t *testing.T) {
	type image struct {
		Channels, Height, Width int
		Pixels                  []float64
	}
	var single struct{ Image image }
	var multi struct{ Images []image }

	tr := mustTraffic(t, "single_f64", 4)
	if err := json.Unmarshal(tr.bodies[17], &single); err != nil {
		t.Fatal(err)
	}
	want := tr.image(17)
	if single.Image.Channels != 2 || len(single.Image.Pixels) != len(want.Pixels) {
		t.Fatalf("body 17 parsed to %+v", single.Image)
	}
	for p, v := range want.Pixels {
		if single.Image.Pixels[p] != v {
			t.Fatalf("pixel %d parsed to %v, the oracle saw %v", p, single.Image.Pixels[p], v)
		}
		if v < 0 || v > 1 || math.Abs(v-tr.base[17].Pixels[p]) > jitter+0.5/pixelGrid {
			t.Fatalf("pixel %d = %v strays from its base %v", p, v, tr.base[17].Pixels[p])
		}
	}

	tr = mustTraffic(t, "batch32_f64", 4)
	if err := json.Unmarshal(tr.bodies[3], &multi); err != nil {
		t.Fatal(err)
	}
	if len(multi.Images) != 32 {
		t.Fatalf("body 3 carries %d images, want 32", len(multi.Images))
	}
	for j, id := range tr.bodyImages[3] {
		if multi.Images[j].Pixels[0] != tr.image(int(id)).Pixels[0] {
			t.Fatalf("image %d of body 3 is not pool image %d", j, id)
		}
	}
	seen := map[int32]bool{}
	for _, ids := range tr.bodyImages {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("pool image %d is in two bodies", id)
			}
			seen[id] = true
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", base, base, true, "ok"},
		{"faster", base, scaled(1.3), true, "ok"},
		{"slower throughput", base, scaled(0.85), true, "regression"},
		{"higher latency", base, scaled(1.15), false, "regression"},
		{"within bound", base, scaled(0.95), true, "ok"},
		{"spread above bound", noisy, base, true, "unresolved"},
		{"no runs", nil, base, true, "missing"},
	} {
		if got, _ := verdictOf(tc.a, tc.b, 0.10, tc.higher); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestSchemaMatchesBenchmarkJSON pins the harness's names, units,
// directions and bounds to BENCHMARK.json, field for field and in order.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join(packageDir, "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25) {
				t.Errorf("%s: bound of %s does not match or is outside (0, 0.25]", kind, w.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s has a bound", kind, w.name)
			}
			if !nameRE.MatchString(w.name) || !unitRE.MatchString(w.unit) || names[w.name] {
				t.Errorf("%s: bad or repeated name or unit %q %q", kind, w.name, w.unit)
			}
			names[w.name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the schema's limits", len(perLayer), len(endToEnd))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := spec.Workloads[i]; g.Name != w.name || g.Why != w.why || !nameRE.MatchString(w.name) || len(w.why) > 200 || names[w.name] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or a bad name or why)", i, g.Name, w.name)
		}
		names[w.name] = true
	}
	if spec.RunSeconds != runSeconds || runSeconds < 1 || runSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", spec.RunSeconds, spec.Paths)
	}
}

// TestSmoke runs one workload end to end through the real server with a 1 s
// timed phase.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-workload", "single_f64", "-smoke"}, &out, io.Discard); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, out.String())
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("smoke result %+v", res)
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %v %s, want a positive value in %s", m.name, v.Value, v.Unit, m.unit)
		}
	}
}
