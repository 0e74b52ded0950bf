package experiments

import (
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
)

func init() {
	register("fig13", Fig13AblationPareto)
	register("fig14", Fig14TemperatureScaling)
}

// Fig13AblationPareto reproduces Fig. 13 on ConvNet/CIFAR-10: it separates
// the contribution of the decision engine (6_MR vs 6_MR_DE) from the
// contribution of preprocessing diversity (6_MR_DE vs 6_PGMR), and
// challenges 6_PGMR with a much wider weight-init ensemble (N_MR_DE).
func Fig13AblationPareto(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	orgAcc, err := ctx.Zoo.Accuracy(b, model.Variant{}, model.SplitTest)
	if err != nil {
		return nil, err
	}
	orgFP := 1 - orgAcc
	wide := model.Replicas(b, ctx.Profile())

	design, err := ctx.Design(b, 6)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID: "fig13", Title: "Decision-engine and preprocessing ablation (paper Fig. 13, ConvNet)",
		Header: []string{"system", "members", "norm FP", "norm TP", "thresholds"},
	}

	// 6_MR: majority vote over six weight-init replicas (no engine).
	mr6, err := core.BuildRecorded(ctx.Zoo, b, model.InitVariants(6), model.SplitTest)
	if err != nil {
		return nil, err
	}
	majRates := mr6.Evaluate(core.Majority(6))
	res.AddRow("6_MR (majority)", "6", pct(majRates.FP/orgFP), pct(majRates.TP/orgAcc), core.Majority(6).String())

	// Engine-based systems share the floor-profiled evaluation.
	for _, cfg := range []struct {
		name     string
		variants []model.Variant
	}{
		{"6_MR_DE", model.InitVariants(6)},
		{fmt.Sprintf("%d_MR_DE", wide), model.InitVariants(wide)},
		{"6_PGMR", design.Variants},
	} {
		fe, err := evalAtFloor(ctx, b, cfg.variants)
		if err != nil {
			return nil, err
		}
		mark := ""
		if !fe.Feasible {
			mark = "*"
		}
		res.AddRow(cfg.name, fmt.Sprint(len(cfg.variants)),
			pct(fe.Test.FP/orgFP)+mark, pct(fe.Test.TP/orgAcc), fe.Th.String())
	}
	res.AddNote("paper: decision engine adds 4.1%% detection over majority; preprocessing adds 18.5%% over 6_MR_DE; 6_PGMR beats even 100_MR_DE by 15.3%%")
	res.AddNote("* = TP floor unreachable on val; max-TP fallback used")
	return res, nil
}

// Fig14TemperatureScaling reproduces Fig. 14 (§IV-E): temperature scaling
// shifts the TP/FP-vs-threshold curves but leaves the achievable (TP, FP)
// frontier unchanged, so the confidence-reliability problem remains.
func Fig14TemperatureScaling(ctx *Context) (*Result, error) {
	ths := []float64{0.3, 0.5, 0.7, 0.9}
	header := []string{"benchmark", "T", "series"}
	for _, t := range ths {
		header = append(header, fmt.Sprintf("t=%.1f", t))
	}
	res := &Result{ID: "fig14", Title: "Temperature scaling (paper Fig. 14)", Header: header}

	for _, name := range []string{"alexnet", "resnet34"} {
		b, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		valLogits, err := ctx.Zoo.Logits(b, model.Variant{}, model.SplitVal)
		if err != nil {
			return nil, err
		}
		valLabels, err := ctx.Zoo.Labels(b, model.SplitVal)
		if err != nil {
			return nil, err
		}
		testLogits, err := ctx.Zoo.Logits(b, model.Variant{}, model.SplitTest)
		if err != nil {
			return nil, err
		}
		testLabels, err := ctx.Zoo.Labels(b, model.SplitTest)
		if err != nil {
			return nil, err
		}
		rep, err := calibrate.Evaluate(valLogits, valLabels, testLogits, testLabels)
		if err != nil {
			return nil, err
		}

		before := metrics.SoftmaxAll(testLogits)
		after := metrics.SoftmaxAllTemp(testLogits, rep.Temperature)
		for _, series := range []struct {
			label string
			probs [][]float64
		}{
			{"FP original", before}, {"FP scaled", after},
			{"TP original", before}, {"TP scaled", after},
		} {
			row := []string{b.Display, fmt.Sprintf("%.2f", rep.Temperature), series.label}
			for _, p := range metrics.ThresholdSweep(series.probs, testLabels, ths) {
				if series.label[:2] == "FP" {
					row = append(row, pct(p.Rates.FP))
				} else {
					row = append(row, pct(p.Rates.TP))
				}
			}
			res.AddRow(row...)
		}

		// Frontier preservation: best FP at the baseline-TP floor before and
		// after scaling (the paper's "Pareto frontier unchanged").
		orgAcc := metrics.Accuracy(before, testLabels)
		frontierFP := func(probs [][]float64) string {
			var ths2 []float64
			ths2 = append(ths2, 0)
			for _, p := range probs {
				ths2 = append(ths2, p[metrics.Argmax(p)])
			}
			var pts []metrics.Point
			for _, p := range metrics.ThresholdSweep(probs, testLabels, ths2) {
				pts = append(pts, metrics.Point{TP: p.Rates.TP, FP: p.Rates.FP})
			}
			if best, ok := metrics.BestUnderTPFloor(metrics.ParetoFrontier(pts), orgAcc); ok {
				return pct(best.FP)
			}
			return "-"
		}
		res.AddNote("%s: T=%.2f, ECE %.4f -> %.4f, FP@TP-floor original %s vs scaled %s (frontier preserved when equal)",
			b.Display, rep.Temperature, rep.ECEBefore, rep.ECEAfter,
			frontierFP(before), frontierFP(after))
	}
	res.AddNote("paper finding: scaling lowers confidences (curves shift) but the TP/FP Pareto frontier is unchanged")
	return res, nil
}
