// Command pgmr-bench runs the paper-reproduction experiments by id and
// prints the tables/series each figure or table of the paper reports.
//
// Usage:
//
//	pgmr-bench -list
//	pgmr-bench fig9 tab3
//	pgmr-bench -json results.json all
//
// Set PGMR_FULL=1 for paper-scale sweeps (slower).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses flags from args, writes tables
// to stdout and diagnostics to stderr, and returns the process exit code
// (0 ok, 1 experiment failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgmr-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids and exit")
	quiet := fs.Bool("quiet", false, "suppress training progress")
	csvDir := fs.String("csv", "", "also write each result as CSV into this directory")
	jsonPath := fs.String("json", "", "write all results as a JSON array to this file (\"-\" = stdout)")
	workers := fs.Int("workers", 0, "worker-pool size of the serving, caching, cluster and SLO experiments' systems (0 = GOMAXPROCS)")
	cacheMB := fs.Int("cache-mb", 64, "ext-caching2, ext-cluster: prediction-cache budget in MiB")
	cacheTTL := fs.Duration("cache-ttl", 0, "ext-caching2: cache entry TTL (0 = entries never expire)")
	cacheDir := fs.String("cache-dir", "", "ext-caching2: persistent L2 cache directory (empty = run-scoped temp dir)")
	zipfS := fs.Float64("zipf", 1.1, "ext-caching2, ext-cluster: Zipf skew exponent of the duplicate workload (> 1)")
	slo := fs.Duration("slo", 50*time.Millisecond, "ext-slo: per-request latency budget of the adaptive-cascade sweep (> 0)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pgmr-bench [-list] [-quiet] [-csv DIR] [-json FILE] <experiment-id>... | all\n")
		fmt.Fprintf(stderr, "experiments: %s\n", strings.Join(experiments.IDs(), ", "))
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cacheMB < 0 || *cacheTTL < 0 {
		fmt.Fprintln(stderr, "pgmr-bench: -cache-mb and -cache-ttl must be >= 0")
		fs.Usage()
		return 2
	}
	if *zipfS <= 1 {
		fmt.Fprintln(stderr, "pgmr-bench: -zipf must be > 1 (Zipf skew exponent)")
		fs.Usage()
		return 2
	}
	if *slo <= 0 {
		fmt.Fprintf(stderr, "pgmr-bench: -slo must be a positive duration, got %v\n", *slo)
		fs.Usage()
		return 2
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	// Unknown ids are usage errors: catch them before any experiment runs
	// rather than hours into a multi-id invocation.
	known := make(map[string]bool)
	for _, id := range experiments.IDs() {
		known[id] = true
	}
	for _, id := range ids {
		if !known[id] {
			fmt.Fprintf(stderr, "pgmr-bench: unknown experiment %q\n", id)
			fs.Usage()
			return 2
		}
	}

	ctx := experiments.NewContext()
	ctx.Workers = *workers
	ctx.CacheMB = *cacheMB
	ctx.CacheTTL = *cacheTTL
	ctx.L2Dir = *cacheDir
	ctx.ZipfS = *zipfS
	ctx.SLO = *slo
	if !*quiet {
		ctx.Zoo.Progress = func(f string, a ...any) {
			fmt.Fprintf(stderr, "# "+f+"\n", a...)
		}
	}
	failed := false
	var results []*experiments.Result
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(ctx, id)
		if err != nil {
			fmt.Fprintf(stderr, "pgmr-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Fprintln(stdout, res)
		fmt.Fprintf(stdout, "(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		results = append(results, res)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				fmt.Fprintf(stderr, "pgmr-bench: %s: %v\n", id, err)
				failed = true
			}
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, stdout, results); err != nil {
			fmt.Fprintf(stderr, "pgmr-bench: %v\n", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeCSV stores one result as <dir>/<id>.csv.
func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	if err := report.CSV(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON stores all completed results as one indented JSON array, either
// to the given path or to stdout when path is "-".
func writeJSON(path string, stdout io.Writer, results []*experiments.Result) error {
	if results == nil {
		results = []*experiments.Result{}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
