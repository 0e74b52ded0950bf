// Command benchmark is the repository's one serving benchmark: it drives the
// real internal/server handler over a polygraph.Build system on loopback
// with a seeded closed-loop load, checks every answer against an oracle, and
// reports end-to-end metrics (--trace 0) or a per-layer time budget
// (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets; the first
// set-up sample is measured from it.
var processStart = time.Now()

// defaultSeed and runSeconds are the benchmark's recorded defaults;
// runSeconds is BENCHMARK.json's run_seconds.
const (
	defaultSeed = 1
	runSeconds  = 12
)

// metricValue is one reported number; result is the last line a run prints.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a fresh process)")
	seed := fs.Int64("seed", defaultSeed, "seed of the jitter, the request order and the Zipf draws")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run plus replay probes, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	smoke := fs.Bool("smoke", false, "1 s timed phase, one set-up, probes skipped")
	runs := fs.Int("runs", 1, "without -workload: runs per workload and trace mode, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "without -workload: write every run's result to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *runs < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	if err := chdirToRepoRoot(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *name == "" {
		return runAll(*seed, *seconds, *runs, *smoke, *out, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, smoke: *smoke, traceOut: *traceOut, log: stdout}
	if *smoke {
		cfg.seconds = 1
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// chdirToRepoRoot moves to the directory holding the repository's go.mod
// (module repro): the model zoo under testdata/ is located from the working
// directory, and the benchmark's own go.mod must not be mistaken for it.
func chdirToRepoRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return errors.New("no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// printMetrics writes every metric of defs by name and unit.
func printMetrics(w io.Writer, workload string, defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-20s %-44s %14.6g %s\n", workload, d.name, v, d.unit)
	}
	// A value computed under a name the schema does not have is a bug in
	// the harness, not a metric.
	var stray []string
	for name := range values {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		panic(fmt.Sprintf("metrics outside the schema: %v", stray))
	}
	return out
}
