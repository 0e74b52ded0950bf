// The external test package breaks the import cycle that would otherwise
// form through internal/experiments: the serving experiment imports the root
// package (via internal/server), so the benchmark harness cannot live inside
// package polygraph itself.
package polygraph_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 maps ids to modules). Each benchmark runs the
// corresponding experiment and prints the same rows/series the paper
// reports; `go test -bench=. -benchmem` therefore doubles as the full
// reproduction run. Results are cached in the model zoo, so the first
// invocation trains the member networks (use cmd/pgmr-train to warm the
// cache up front) and subsequent iterations are post-processing only.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	polygraph "repro"
	"repro/internal/experiments"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchPrinted sync.Map
)

func benchContext() *experiments.Context {
	benchCtxOnce.Do(func() {
		benchCtx = experiments.NewContext()
		benchCtx.Zoo.Progress = func(f string, a ...any) {
			fmt.Fprintf(os.Stderr, "# "+f+"\n", a...)
		}
	})
	return benchCtx
}

// benchExperiment runs one experiment per iteration, printing its table the
// first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	ctx := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(ctx, id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if _, done := benchPrinted.LoadOrStore(id, true); !done {
			b.StopTimer()
			fmt.Printf("\n%s\n", res)
			b.StartTimer()
		}
	}
}

// BenchmarkTab02BenchmarkSuite regenerates Table II (benchmark accuracies).
func BenchmarkTab02BenchmarkSuite(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkTab03Configurations regenerates Table III (selected 4_PGMR
// preprocessor configurations).
func BenchmarkTab03Configurations(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkFig01ConfidenceHistogram regenerates Fig. 1 (wrong answers per
// confidence bucket across the six benchmarks).
func BenchmarkFig01ConfidenceHistogram(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig02ThresholdSweep regenerates Fig. 2 (TP/FP vs confidence
// threshold).
func BenchmarkFig02ThresholdSweep(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig03HardSamples regenerates the Fig. 3 misclassification
// analysis on the planted hard characteristics.
func BenchmarkFig03HardSamples(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig05MRDegree regenerates Fig. 5 (traditional MR vs redundancy
// degree under three decision policies).
func BenchmarkFig05MRDegree(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig06PrecisionSweep regenerates Fig. 6 (accuracy vs precision
// for ORG and 4_PGMR on AlexNet).
func BenchmarkFig06PrecisionSweep(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig07Agreement regenerates Fig. 7 (agreement histogram of a
// 4-CNN system).
func BenchmarkFig07Agreement(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig08DeltaCDF regenerates Fig. 8 (AdHist vs Scale(0.8) delta
// profiles).
func BenchmarkFig08DeltaCDF(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig09NormalizedFP regenerates Fig. 9 (normalized FP of 4_MR,
// 4_PGMR, 6_MR, 6_PGMR across the six benchmarks).
func BenchmarkFig09NormalizedFP(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10CostOptimization regenerates Fig. 10 (energy/latency/FP
// across the RAMR and RADE optimization stages).
func BenchmarkFig10CostOptimization(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11PrecisionPareto regenerates Fig. 11 (precision-reduced
// Pareto frontiers on AlexNet).
func BenchmarkFig11PrecisionPareto(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12RADEActivation regenerates Fig. 12 (distribution of
// networks activated by RADE).
func BenchmarkFig12RADEActivation(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13AblationPareto regenerates Fig. 13 (decision-engine and
// preprocessing ablation, wide-MR challenge).
func BenchmarkFig13AblationPareto(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14TemperatureScaling regenerates Fig. 14 (temperature
// scaling vs the reliability problem).
func BenchmarkFig14TemperatureScaling(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkExtOracleBound runs the oracle-decision-engine upper-bound
// ablation (extension of the paper's §III-F sketch).
func BenchmarkExtOracleBound(b *testing.B) { benchExperiment(b, "ext-oracle") }

// BenchmarkExtFPBudget runs the FP-budget threshold-selection ablation
// (extension of the paper's §III-E user demands).
func BenchmarkExtFPBudget(b *testing.B) { benchExperiment(b, "ext-budget") }

// BenchmarkExtTransientFaults runs the weight bit-flip injection study
// (extension connecting the paper to its §V transient-fault literature).
func BenchmarkExtTransientFaults(b *testing.B) { benchExperiment(b, "ext-faults") }

// BenchmarkExtSoftVote runs the hard-vote vs soft-vote decision-policy
// ablation (extension; paper §V deep-ensembles comparison).
func BenchmarkExtSoftVote(b *testing.B) { benchExperiment(b, "ext-softvote") }

// BenchmarkExtOutOfDistribution runs the OOD-rejection comparison
// (extension; paper §V out-of-distribution detection neighbours).
func BenchmarkExtOutOfDistribution(b *testing.B) { benchExperiment(b, "ext-ood") }

// BenchmarkExtServing runs the HTTP serving throughput/latency study over
// the dynamic-batching server (extension; paper §IV-C latency budget).
func BenchmarkExtServing(b *testing.B) { benchExperiment(b, "ext-serving") }

// BenchmarkBuild times one bring-up of the served convnet system per op:
// dataset generation, the GreedyDesign over the cached logits, loading and
// collapse-probing each member, and compiling the engine. Nothing is
// memoized across ops (each Build starts from a fresh zoo), so every op
// pays what a starting pgmr-serve or restarted cluster peer pays.
func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := polygraph.Build("convnet", polygraph.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}
}
