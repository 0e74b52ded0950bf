package experiments

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func TestIDsComplete(t *testing.T) {
	want := []string{"ext-abft", "ext-budget", "ext-caching2", "ext-cluster", "ext-faults", "ext-ood", "ext-oracle",
		"ext-serving", "ext-slo", "ext-softvote", "fig1", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"tab2", "tab3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %d experiments", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	ctx := NewContext()
	if _, err := Run(ctx, "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo",
		Header: []string{"col1", "column2"},
	}
	r.AddRow("a", "b")
	r.AddRow("longervalue", "c")
	r.AddNote("a note with %d", 42)
	s := r.String()
	for _, want := range []string{"figX", "demo", "col1", "longervalue", "note: a note with 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	// Aligned: header and first row should pad col1 to the widest cell.
	lines := strings.Split(s, "\n")
	if !strings.HasPrefix(lines[1], "col1       ") {
		t.Errorf("header not padded: %q", lines[1])
	}
}

func TestInitVariants(t *testing.T) {
	vs := InitVariants(3)
	if len(vs) != 3 {
		t.Fatalf("InitVariants(3) = %v", vs)
	}
	if vs[0].Key() != "ORG" || vs[1].Key() != "ORG#1" || vs[2].Key() != "ORG#2" {
		t.Errorf("InitVariants keys: %s %s %s", vs[0].Key(), vs[1].Key(), vs[2].Key())
	}
}

func TestCandidatePool(t *testing.T) {
	ctx := NewContext()
	pool := ctx.CandidatePool()
	if len(pool) != 7 {
		t.Fatalf("pool size %d", len(pool))
	}
	seen := map[string]bool{}
	for _, v := range pool {
		if v.Init != 0 {
			t.Errorf("candidate %s has nonzero init", v.Key())
		}
		if seen[v.Key()] {
			t.Errorf("duplicate candidate %s", v.Key())
		}
		seen[v.Key()] = true
		if _, err := v.Preprocessor(); err != nil {
			t.Errorf("candidate %s: %v", v.Key(), err)
		}
	}
}

// TestMotivationExperimentsEndToEnd runs the cheap motivation experiments
// against the shared repository zoo. With a warm cache this is fast; on a
// cold cache it trains the six ORG baselines (skipped under -short).
func TestMotivationExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed experiments in -short mode")
	}
	ctx := NewContext()
	for _, id := range []string{"tab2", "fig1", "fig2", "fig3"} {
		res, err := Run(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if res.ID != id {
			t.Errorf("result id %s, want %s", res.ID, id)
		}
	}
}

// TestExtAbftEndToEnd smokes the ABFT closed-loop experiment (the CI smoke
// for verified mode): the runner itself fails if a verified clean decision
// diverges from the unverified one or an injected fault changes a campaign
// decision without being flagged, so the test only has to assert it ran and
// covered every backend.
func TestExtAbftEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed experiment in -short mode")
	}
	ctx := NewContext()
	res, err := Run(ctx, "ext-abft")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected one row per backend, got %d", len(res.Rows))
	}
}

// TestExtClusterEndToEnd smokes the scale-out cluster experiment (the CI
// smoke for clustered serving): the runner itself enforces decision
// bit-identity to single-process serving, one-owner-per-key routing, and
// zero fallbacks with every peer up, so the test asserts it ran and
// produced the 1-node and 3-node points.
func TestExtClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed experiment in -short mode")
	}
	ctx := NewContext()
	res, err := Run(ctx, "ext-cluster")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 1-node and 3-node rows, got %d", len(res.Rows))
	}
}

// TestExtSLOEndToEnd smokes the adaptive-cascade sweep: the runner itself
// enforces the ≥99% low-load agreement floor and the orderings the
// experiment is about (a degraded tier under overload, and at the band
// point a p99 below the static server's — no absolute wall-clock bound, so
// the verdict does not depend on the box), so the test asserts it ran and
// produced one row per (load, mode) point.
func TestExtSLOEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed experiment in -short mode")
	}
	ctx := NewContext()
	res, err := Run(ctx, "ext-slo")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("expected 3 loads x 2 modes = 6 rows, got %d", len(res.Rows))
	}
}

// TestTab2OrderingMatchesPaper asserts the reproduction's core calibration
// claim: within each dataset, the measured accuracy ordering matches the
// paper's Table II ordering.
func TestTab2OrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed experiment in -short mode")
	}
	ctx := NewContext()
	acc := map[string]float64{}
	for _, b := range model.Benchmarks() {
		a, err := ctx.Zoo.Accuracy(b, model.Variant{}, model.SplitTest)
		if err != nil {
			t.Fatal(err)
		}
		acc[b.Name] = a
	}
	orderings := [][2]string{
		{"convnet", "resnet20"},    // ConvNet < ResNet20
		{"resnet20", "densenet40"}, // ResNet20 < DenseNet40
		{"alexnet", "resnet34"},    // AlexNet < ResNet34
	}
	for _, o := range orderings {
		if acc[o[0]] >= acc[o[1]] {
			t.Errorf("ordering violated: %s (%.3f) should be below %s (%.3f)",
				o[0], acc[o[0]], o[1], acc[o[1]])
		}
	}
	if acc["lenet5"] < 0.97 {
		t.Errorf("lenet5 accuracy %.3f; want ≈0.99", acc["lenet5"])
	}
}
