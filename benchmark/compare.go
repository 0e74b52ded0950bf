package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series collects one metric's values on one workload over a file's
// untraced runs.
func series(f resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict applies the rule set of the choosing-metrics guide, sections 6 to
// 8, to one workload × metric pair: `unresolved` when either side's spread
// (interquartile distance over its median) exceeds the bound, `regression`
// when B's median is worse than A's by more than the bound, `ok` otherwise.
// worse is the relative change in the metric's bad direction.
func verdictOf(a, b []float64, bound float64, higherBetter bool) (v string, worse float64) {
	ma, mb := median(a), median(b)
	spread := func(xs []float64, m float64) float64 {
		q1, q3 := quartiles(xs)
		if m == 0 {
			return 0
		}
		return (q3 - q1) / m
	}
	if ma != 0 && mb != ma {
		worse = (mb - ma) / ma
		if higherBetter {
			worse = -worse
		}
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		v = "missing"
	case spread(a, ma) > bound || spread(b, mb) > bound:
		v = "unresolved"
	case worse > bound:
		v = "regression"
	default:
		v = "ok"
	}
	return v, worse
}

// compareFiles prints, for every workload × end-to-end metric, both sides'
// median and quartiles with their sample counts, the change as a share of
// A's median, the bound, and the verdict; it exits 1 unless every verdict
// is ok.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := readResults(pathA)
	if err == nil {
		var fb resultFile
		if fb, err = readResults(pathB); err == nil {
			return compareResults(fa, fb, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 1
}

func compareResults(fa, fb resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "%-20s %-15s %30s %30s %9s %6s  %s\n",
		"workload", "metric", "A median [q1,q3] (n)", "B median [q1,q3] (n)", "B worse", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := series(fa, w.name, m.name), series(fb, w.name, m.name)
			v, worse := verdictOf(a, b, m.bound, m.higher)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-20s %-15s %30s %30s %+8.2f%% %5.1f%%  %s\n",
				w.name, m.name, summary(a), summary(b), 100*worse, 100*m.bound, v)
		}
	}
	fmt.Fprintf(stdout, "B worse = change of B's median in the metric's bad direction, as a share of A's median\n")
	if bad > 0 {
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g,%.5g] (%d)", median(xs), q1, q3, len(xs))
}
