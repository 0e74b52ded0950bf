package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunUsageErrors pins the exit-code contract for misuse: no experiment
// ids, an unknown id, and a bad flag are all usage errors (exit 2) that print
// the usage line and the known ids without running anything.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no ids", nil},
		{"unknown id", []string{"nosuchfig"}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
		{"negative cache-mb", []string{"-cache-mb", "-1", "ext-caching2"}},
		{"negative cache-ttl", []string{"-cache-ttl", "-1s", "ext-caching2"}},
		{"zipf at 1", []string{"-zipf", "1", "ext-caching2"}},
		{"zipf below 1", []string{"-zipf", "0.5", "ext-caching2"}},
		{"zero slo", []string{"-slo", "0", "ext-slo"}},
		{"negative slo", []string{"-slo", "-5ms", "ext-slo"}},
		{"retired prepack flag", []string{"-prepack", "on", "-list"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2", tc.args, code)
			}
			if !strings.Contains(stderr.String(), "usage: pgmr-bench") {
				t.Errorf("stderr missing usage line:\n%s", stderr.String())
			}
		})
	}
}

// TestRunList checks -list prints every experiment id, one per line.
func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, stderr.String())
	}
	got := strings.Fields(stdout.String())
	ids := experiments.IDs()
	if len(got) != len(ids) {
		t.Fatalf("-list printed %d ids, want %d", len(got), len(ids))
	}
	for i, id := range ids {
		if got[i] != id {
			t.Errorf("-list line %d = %q, want %q", i, got[i], id)
		}
	}
}

// TestWriteJSON round-trips results through the -json output, including the
// empty-results edge (an empty array, not JSON null).
func TestWriteJSON(t *testing.T) {
	dir := t.TempDir()
	results := []*experiments.Result{
		{ID: "fig9", Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}},
		{ID: "tab3", Title: "u", Header: []string{"c"}},
	}
	path := filepath.Join(dir, "out.json")
	if err := writeJSON(path, nil, results); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []*experiments.Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(got) != 2 || got[0].ID != "fig9" || got[1].ID != "tab3" || got[0].Rows[0][1] != "2" {
		t.Errorf("round-trip mismatch: %+v", got)
	}

	// "-" writes to stdout; nil results still produce a JSON array.
	var stdout strings.Builder
	if err := writeJSON("-", &stdout, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("empty results wrote %q, want []", stdout.String())
	}
}
