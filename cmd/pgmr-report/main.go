// Command pgmr-report runs the complete experiment suite and writes the
// results as plain text (default experiments_results.txt at the repo root)
// and as Markdown (experiments_results.md) in addition to stdout.
// EXPERIMENTS.md discusses these measurements against the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/report"
)

func main() {
	out := flag.String("o", "", "output path (default <repo>/experiments_results.txt)")
	flag.Parse()

	path := *out
	if path == "" {
		root, err := model.FindRepoRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pgmr-report:", err)
			os.Exit(1)
		}
		path = filepath.Join(root, "experiments_results.txt")
	}

	ctx := experiments.NewContext()

	var sb strings.Builder
	var results []*experiments.Result
	fmt.Fprintf(&sb, "PolygraphMR reproduction — experiment suite\n")
	fmt.Fprintf(&sb, "run: %s  profile: %s\n\n", time.Now().Format(time.RFC3339), profileName())
	start := time.Now()
	for _, id := range experiments.IDs() {
		t0 := time.Now()
		res, err := experiments.Run(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgmr-report: %s: %v\n", id, err)
			fmt.Fprintf(&sb, "== %s: FAILED: %v ==\n\n", id, err)
			continue
		}
		results = append(results, res)
		fmt.Println(res)
		fmt.Fprintf(&sb, "%s(%s in %s)\n\n", res, id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "total: %s\n", time.Since(start).Round(time.Second))

	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pgmr-report:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)

	mdPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".md"
	var md strings.Builder
	title := fmt.Sprintf("PolygraphMR reproduction — experiment suite (%s profile)", profileName())
	if err := report.Suite(&md, title, results); err != nil {
		fmt.Fprintln(os.Stderr, "pgmr-report:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(mdPath, []byte(md.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pgmr-report:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", mdPath)
}

func profileName() string {
	if v := os.Getenv("PGMR_FULL"); v != "" && v != "0" {
		return "full"
	}
	return "fast"
}
