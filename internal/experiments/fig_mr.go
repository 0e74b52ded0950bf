package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/model"
)

func init() {
	register("fig5", Fig5MRDegree)
	register("fig7", Fig7Agreement)
}

// fig5Degrees returns the redundancy degrees swept by Fig. 5, scaled by
// profile (the paper sweeps 2–30).
func fig5Degrees(p dataset.Profile) []int {
	if p == dataset.Full {
		return []int{2, 4, 6, 8, 10, 14, 18, 22, 26, 30}
	}
	return []int{2, 4, 6, 8, 10, 12, 14}
}

// Fig5MRDegree reproduces Fig. 5: traditional MR on ConvNet/CIFAR-10 with
// random-init replicas, under three decision policies — majority vote,
// all-identical, and all-identical plus a 75% confidence threshold —
// reporting FP and TP versus redundancy degree.
func Fig5MRDegree(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	degrees := fig5Degrees(ctx.Profile())
	maxN := degrees[len(degrees)-1]
	rec, err := core.BuildRecorded(ctx.Zoo, b, model.InitVariants(maxN), model.SplitTest)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID: "fig5", Title: "Traditional MR vs redundancy degree (paper Fig. 5, ConvNet/CIFAR10)",
		Header: []string{"degree", "majority FP", "majority TP", "all-ident FP", "all-ident TP", "all-ident+conf75 FP", "all-ident+conf75 TP"},
	}
	single := rec.Subset([]int{0}).Evaluate(core.Thresholds{Conf: 0, Freq: 1})
	res.AddNote("single CNN baseline: FP %s, TP %s", pct(single.FP), pct(single.TP))

	idx := make([]int, 0, maxN)
	for _, d := range degrees {
		idx = idx[:0]
		for i := 0; i < d; i++ {
			idx = append(idx, i)
		}
		sub := rec.Subset(idx)
		maj := sub.Evaluate(core.Majority(d))
		all := sub.Evaluate(core.AllIdentical(d))
		allConf := sub.Evaluate(core.Thresholds{Conf: 0.75, Freq: d})
		res.AddRow(fmt.Sprint(d),
			pct(maj.FP), pct(maj.TP),
			pct(all.FP), pct(all.TP),
			pct(allConf.FP), pct(allConf.TP))
	}
	res.AddNote("paper finding: majority-vote FP flattens with degree; all-identical reaches ~1%% FP (and ~0.2%% with Thr_Conf) but collapses TP")
	return res, nil
}

// Fig7Agreement reproduces Fig. 7: the histogram of prediction agreements in
// a 4-CNN random-init system on LeNet-5, ConvNet and AlexNet, with no
// confidence threshold.
func Fig7Agreement(ctx *Context) (*Result, error) {
	res := &Result{
		ID: "fig7", Title: "Prediction-agreement histogram, 4 CNNs (paper Fig. 7)",
		Header: []string{"benchmark", "agree=1", "agree=2", "agree=3", "agree=4", ">=50% consensus"},
	}
	for _, name := range []string{"lenet5", "convnet", "alexnet"} {
		b, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		rec, err := core.BuildRecorded(ctx.Zoo, b, model.InitVariants(4), model.SplitTest)
		if err != nil {
			return nil, err
		}
		h := metrics.AgreementHistogram(rec.MemberPreds())
		res.AddRow(b.Display, pct(h[1]), pct(h[2]), pct(h[3]), pct(h[4]), pct(h[3]+h[4]))
	}
	res.AddNote("paper finding: in >50%% of inputs the CNNs agree, so activating a subset suffices (motivates RADE)")
	return res, nil
}
