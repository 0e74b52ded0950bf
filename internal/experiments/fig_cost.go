package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/perf"
	"repro/internal/precision"
)

func init() {
	register("fig6", Fig6PrecisionSweep)
	register("fig10", Fig10CostOptimization)
	register("fig11", Fig11PrecisionPareto)
	register("fig12", Fig12RADEActivation)
}

// quantProbs returns the member's softmax outputs at the given storage
// width, via the zoo's hooked-inference cache. bits >= 32 means full
// precision.
func quantProbs(ctx *Context, b model.Benchmark, v model.Variant, split model.Split, bits int) ([][]float64, error) {
	if bits >= 32 || bits <= 0 {
		logits, err := ctx.Zoo.Logits(b, v, split)
		if err != nil {
			return nil, err
		}
		return metrics.SoftmaxAll(logits), nil
	}
	tag := fmt.Sprintf("b%02d", bits)
	logits, err := ctx.Zoo.LogitsHooked(b, v, split, tag, func(net *nn.Network) {
		if err := precision.Apply(net, precision.FromBits(bits)); err != nil {
			panic(err) // formats from FromBits always validate
		}
	})
	if err != nil {
		return nil, err
	}
	return metrics.SoftmaxAll(logits), nil
}

// recordedAt builds a Recorded over variants at the given precision.
func recordedAt(ctx *Context, b model.Benchmark, variants []model.Variant, split model.Split, bits int) (*core.Recorded, error) {
	labels, err := ctx.Zoo.Labels(b, split)
	if err != nil {
		return nil, err
	}
	probs := make([][][]float64, 0, len(variants))
	for _, v := range variants {
		p, err := quantProbs(ctx, b, v, split, bits)
		if err != nil {
			return nil, err
		}
		probs = append(probs, p)
	}
	return core.NewRecorded(probs, labels)
}

// labelAccuracy is the accuracy of the system's final label when every
// member votes and the mean member distribution breaks ties — the paper's
// Fig. 6 "accuracy" of a PolygraphMR system, which §III-D describes as
// "performs similar to ensembles": averaging member distributions cancels
// member-independent quantization noise.
func labelAccuracy(rec *core.Recorded) float64 {
	correct := 0
	classes := len(rec.Probs[0][0])
	mean := make([]float64, classes)
	for s := 0; s < rec.Samples(); s++ {
		for j := range mean {
			mean[j] = 0
		}
		for m := range rec.Probs {
			for j, v := range rec.Probs[m][s] {
				mean[j] += v
			}
		}
		if metrics.Argmax(mean) == rec.Labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(rec.Samples())
}

// minBitsORG finds the smallest width at which the ORG member keeps its
// full-precision accuracy on the validation split (within tol).
func minBitsORG(ctx *Context, b model.Benchmark, sweep []int, tol float64) (int, error) {
	full, err := ctx.Zoo.Accuracy(b, model.Variant{}, model.SplitVal)
	if err != nil {
		return 0, err
	}
	best := 32
	for _, bits := range sweep {
		probs, err := quantProbs(ctx, b, model.Variant{}, model.SplitVal, bits)
		if err != nil {
			return 0, err
		}
		labels, err := ctx.Zoo.Labels(b, model.SplitVal)
		if err != nil {
			return 0, err
		}
		if metrics.Accuracy(probs, labels) >= full-tol {
			best = bits
			break
		}
	}
	return best, nil
}

// minBitsPGMR finds the smallest width at which the PGMR system keeps its
// own full-precision ensemble accuracy on the validation split (within
// tol). The criterion is self-relative, mirroring minBitsORG: both systems
// must hold the accuracy they have at fp32, and the paper's claim is that
// the redundant system holds it down to narrower widths.
func minBitsPGMR(ctx *Context, b model.Benchmark, variants []model.Variant, sweep []int, tol float64) (int, error) {
	fullRec, err := recordedAt(ctx, b, variants, model.SplitVal, 32)
	if err != nil {
		return 0, err
	}
	full := labelAccuracy(fullRec)
	best := 32
	for _, bits := range sweep {
		rec, err := recordedAt(ctx, b, variants, model.SplitVal, bits)
		if err != nil {
			return 0, err
		}
		if labelAccuracy(rec) >= full-tol {
			best = bits
			break
		}
	}
	return best, nil
}

const bitsTolerance = 0.005

// Fig6PrecisionSweep reproduces Fig. 6: accuracy of the original AlexNet and
// of the 4_PGMR system as precision is reduced, showing that the system
// tolerates narrower widths than the standalone CNN.
func Fig6PrecisionSweep(ctx *Context) (*Result, error) {
	b, err := model.ByName("alexnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID: "fig6", Title: "Accuracy vs precision (paper Fig. 6, AlexNet)",
		Header: []string{"bits", "ORG acc", "4_PGMR acc"},
	}
	labels, err := ctx.Zoo.Labels(b, model.SplitVal)
	if err != nil {
		return nil, err
	}
	for _, bits := range precision.SweepBits(ctx.Profile()) {
		orgProbs, err := quantProbs(ctx, b, model.Variant{}, model.SplitVal, bits)
		if err != nil {
			return nil, err
		}
		rec, err := recordedAt(ctx, b, design.Variants, model.SplitVal, bits)
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprint(bits), pct(metrics.Accuracy(orgProbs, labels)), pct(labelAccuracy(rec)))
	}
	orgBits, err := minBitsORG(ctx, b, precision.SweepBits(ctx.Profile()), bitsTolerance)
	if err != nil {
		return nil, err
	}
	pgmrBits, err := minBitsPGMR(ctx, b, design.Variants, precision.SweepBits(ctx.Profile()), bitsTolerance)
	if err != nil {
		return nil, err
	}
	res.AddNote("minimum width holding baseline accuracy: ORG %d bits, 4_PGMR %d bits (paper: 17 vs 14)", orgBits, pgmrBits)
	return res, nil
}

// systemPerf assembles the perf SystemConfig for a benchmark's 4_PGMR at a
// given precision.
func systemPerf(ctx *Context, b model.Benchmark, members int, bits, gpus int) (perf.SystemConfig, perf.Cost, error) {
	net, err := ctx.Zoo.Network(b, model.Variant{})
	if err != nil {
		return perf.SystemConfig{}, perf.Cost{}, err
	}
	base := perf.InferenceCost(ctx.GPU, net, 32)
	member := perf.InferenceCost(ctx.GPU, net, bits)
	costs := make([]perf.Cost, members)
	for i := range costs {
		costs[i] = member
	}
	cfg := perf.SystemConfig{
		MemberCosts: costs,
		// Paper §IV-C: preprocessing + decision overhead is ~0.6–2.5% of a
		// member inference; charge 2% as preprocessing per activation and
		// 0.5% as the (CPU) decision per input.
		PreprocessCost: perf.Cost{Energy: 0.02 * base.Energy, Latency: 0.02 * base.Latency},
		DecisionCost:   perf.Cost{Energy: 0.005 * base.Energy, Latency: 0.005 * base.Latency},
		GPUs:           gpus,
	}
	return cfg, base, nil
}

// Fig10CostOptimization reproduces Fig. 10: energy, latency and FP detection
// of 4_PGMR, +RAMR, and +RAMR+RADE, normalized to the baseline CNN, plus
// the two-GPU latency of the optimized system.
func Fig10CostOptimization(ctx *Context) (*Result, error) {
	res := &Result{
		ID: "fig10", Title: "Cost-oriented optimization (paper Fig. 10)",
		Header: []string{"benchmark", "stage", "bits", "energy", "latency", "FP-detect", "mean-act"},
	}
	type acc struct{ e, l, fp, n float64 }
	stageSum := map[string]*acc{"4_PGMR": {}, "+RAMR": {}, "+RAMR+RADE": {}, "2-GPU": {}}

	for _, b := range model.Benchmarks() {
		design, err := ctx.Design(b, 4)
		if err != nil {
			return nil, err
		}
		orgAcc, err := ctx.Zoo.Accuracy(b, model.Variant{}, model.SplitTest)
		if err != nil {
			return nil, err
		}
		orgFP := 1 - orgAcc
		sweep := []int{12, 13, 14, 15, 16, 17, 18}
		pgmrBits, err := minBitsPGMR(ctx, b, design.Variants, sweep, bitsTolerance)
		if err != nil {
			return nil, err
		}

		// Shared: threshold selection per precision on val, evaluation on test.
		evalBits := func(bits int, staged bool, gpus int) (perf.Cost, perf.Cost, float64, float64, error) {
			valRec, err := recordedAt(ctx, b, design.Variants, model.SplitVal, bits)
			if err != nil {
				return perf.Cost{}, perf.Cost{}, 0, 0, err
			}
			baseValAcc, err := ctx.Zoo.Accuracy(b, model.Variant{}, model.SplitVal)
			if err != nil {
				return perf.Cost{}, perf.Cost{}, 0, 0, err
			}
			th, _, ok := valRec.SelectThresholds(baseValAcc)
			if !ok {
				frontier := valRec.Pareto()
				th = frontier[len(frontier)-1].Meta.(core.Thresholds)
			}
			testRec, err := recordedAt(ctx, b, design.Variants, model.SplitTest, bits)
			if err != nil {
				return perf.Cost{}, perf.Cost{}, 0, 0, err
			}
			var rates metrics.Rates
			var activations []int
			meanAct := float64(len(design.Variants))
			if staged {
				sr := testRec.Staged(th, valRec.PriorityOrder(), gpus)
				rates = sr.Rates
				activations = sr.Activations
				meanAct = sr.MeanActivated()
			} else {
				rates = testRec.Evaluate(th)
				activations = perf.FullActivations(testRec.Samples(), len(design.Variants))
			}
			cfg, base, err := systemPerf(ctx, b, len(design.Variants), bits, gpus)
			if err != nil {
				return perf.Cost{}, perf.Cost{}, 0, 0, err
			}
			cost, err := perf.SystemCost(cfg, activations)
			if err != nil {
				return perf.Cost{}, perf.Cost{}, 0, 0, err
			}
			return cost, base, 1 - rates.FP/orgFP, meanAct, nil
		}

		stages := []struct {
			name   string
			bits   int
			staged bool
			gpus   int
		}{
			{"4_PGMR", 32, false, 1},
			{"+RAMR", pgmrBits, false, 1},
			{"+RAMR+RADE", pgmrBits, true, 1},
			{"2-GPU", pgmrBits, true, 2},
		}
		for _, st := range stages {
			cost, base, fpDetect, meanAct, err := evalBits(st.bits, st.staged, st.gpus)
			if err != nil {
				return nil, err
			}
			normE, normL := cost.Energy/base.Energy, cost.Latency/base.Latency
			res.AddRow(b.Display, st.name, fmt.Sprint(st.bits),
				fmt.Sprintf("%.2fx", normE), fmt.Sprintf("%.2fx", normL),
				pct(fpDetect), fmt.Sprintf("%.2f", meanAct))
			s := stageSum[st.name]
			s.e += normE
			s.l += normL
			s.fp += fpDetect
			s.n++
		}
	}
	for _, name := range []string{"4_PGMR", "+RAMR", "+RAMR+RADE", "2-GPU"} {
		s := stageSum[name]
		res.AddRow("AVERAGE", name, "",
			fmt.Sprintf("%.2fx", s.e/s.n), fmt.Sprintf("%.2fx", s.l/s.n), pct(s.fp/s.n), "")
	}
	res.AddNote("paper: optimized 4_PGMR averages 185.5%% energy / 186.3%% latency (<2x) with 33.5%% FP detection; 2-GPU latency near baseline")
	return res, nil
}

// Fig11PrecisionPareto reproduces Fig. 11: the (TP, FP) Pareto frontier of
// AlexNet ORG and 4_PGMR at full and reduced precision — RAMR barely moves
// the PGMR frontier.
func Fig11PrecisionPareto(ctx *Context) (*Result, error) {
	b, err := model.ByName("alexnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	sweep := precision.SweepBits(ctx.Profile())
	orgBits, err := minBitsORG(ctx, b, sweep, bitsTolerance)
	if err != nil {
		return nil, err
	}
	pgmrBits, err := minBitsPGMR(ctx, b, design.Variants, sweep, bitsTolerance)
	if err != nil {
		return nil, err
	}
	orgAcc, err := ctx.Zoo.Accuracy(b, model.Variant{}, model.SplitTest)
	if err != nil {
		return nil, err
	}
	orgFP := 1 - orgAcc
	labels, err := ctx.Zoo.Labels(b, model.SplitTest)
	if err != nil {
		return nil, err
	}

	// Include floors below 95%: on the synthetic ImageNet substitute the
	// 4_PGMR frontier tops out near 90% of the ORG TP (the starred fallback
	// rows of fig9), so the lower floors are where the four frontiers are
	// all defined and comparable.
	targets := []float64{1.0, 0.97, 0.95, 0.9, 0.85, 0.8}
	header := []string{"system", "bits"}
	for _, t := range targets {
		header = append(header, fmt.Sprintf("FP@TP>=%.0f%%", t*100))
	}
	res := &Result{ID: "fig11", Title: "Precision-reduced Pareto frontiers (paper Fig. 11, AlexNet)", Header: header}

	orgFrontier := func(bits int) ([]metrics.Point, error) {
		probs, err := quantProbs(ctx, b, model.Variant{}, model.SplitTest, bits)
		if err != nil {
			return nil, err
		}
		var pts []metrics.Point
		for _, p := range metrics.ThresholdSweep(probs, labels, metrics.Thresholds(0.02)) {
			pts = append(pts, metrics.Point{TP: p.Rates.TP, FP: p.Rates.FP})
		}
		return metrics.ParetoFrontier(pts), nil
	}
	pgmrFrontier := func(bits int) ([]metrics.Point, error) {
		rec, err := recordedAt(ctx, b, design.Variants, model.SplitTest, bits)
		if err != nil {
			return nil, err
		}
		return rec.Pareto(), nil
	}

	for _, sys := range []struct {
		name     string
		bits     int
		frontier func(int) ([]metrics.Point, error)
	}{
		{"ORG", 32, orgFrontier},
		{"ORG", orgBits, orgFrontier},
		{"4_PGMR", 32, pgmrFrontier},
		{"4_PGMR", pgmrBits, pgmrFrontier},
	} {
		frontier, err := sys.frontier(sys.bits)
		if err != nil {
			return nil, err
		}
		row := []string{sys.name, fmt.Sprint(sys.bits)}
		for _, t := range targets {
			if best, ok := metrics.BestUnderTPFloor(frontier, t*orgAcc); ok {
				row = append(row, pct(best.FP/orgFP))
			} else {
				row = append(row, "-")
			}
		}
		res.AddRow(row...)
	}
	res.AddNote("cells are normalized FP (system FP / ORG FP) at each normalized-TP floor; paper: RAMR leaves the 4_PGMR frontier nearly unchanged")
	res.AddNote("minimum widths: ORG %d bits, 4_PGMR %d bits", orgBits, pgmrBits)
	return res, nil
}

// Fig12RADEActivation reproduces Fig. 12: the distribution of the number of
// networks activated by RADE per benchmark on the test set.
func Fig12RADEActivation(ctx *Context) (*Result, error) {
	res := &Result{
		ID: "fig12", Title: "RADE activation distribution (paper Fig. 12)",
		Header: []string{"benchmark", "2 nets", "3 nets", "4 nets", "mean"},
	}
	for _, b := range model.Benchmarks() {
		design, err := ctx.Design(b, 4)
		if err != nil {
			return nil, err
		}
		fe, err := evalAtFloor(ctx, b, design.Variants)
		if err != nil {
			return nil, err
		}
		valRec, err := core.BuildRecorded(ctx.Zoo, b, design.Variants, model.SplitVal)
		if err != nil {
			return nil, err
		}
		testRec, err := core.BuildRecorded(ctx.Zoo, b, design.Variants, model.SplitTest)
		if err != nil {
			return nil, err
		}
		sr := testRec.Staged(fe.Th, valRec.PriorityOrder(), 1)
		h := sr.ActivationHist
		// Buckets 1 and 2 merge: the initial stage activates Thr_Freq
		// members, which is at least 1; report 1-2 together as "2 nets".
		res.AddRow(b.Display, pct(h[1]+h[2]), pct(h[3]), pct(h[4]), fmt.Sprintf("%.2f", sr.MeanActivated()))
	}
	res.AddNote("paper finding: the majority of inputs resolve with two networks; higher-accuracy baselines activate extras less often")
	return res, nil
}
