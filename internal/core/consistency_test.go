package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
)

// TestLiveSystemMatchesRecordedStaged verifies that the live staged
// System.Classify path and the offline Recorded.Staged path implement the
// same RADE semantics: same labels, same reliability verdicts, same
// activation counts, for the same members in the same priority order.
func TestLiveSystemMatchesRecordedStaged(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed consistency test in -short mode")
	}
	b := testBenchmark("consistency")
	variants := []model.Variant{{}, {Preproc: "FlipX"}, {Preproc: "Gamma(2)"}, {Preproc: "FlipY"}}
	zoo := trainedZoo(t, b, variants)

	valRec, err := BuildRecorded(zoo, b, variants, model.SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	order := valRec.PriorityOrder()
	th := Thresholds{Conf: 0.5, Freq: 2}

	// Offline: staged evaluation over recorded test outputs.
	testRec, err := BuildRecorded(zoo, b, variants, model.SplitTest)
	if err != nil {
		t.Fatal(err)
	}
	offline := testRec.Staged(th, order, 1)

	// Live: a System with members in the same priority order.
	members := make([]Member, len(order))
	for i, idx := range order {
		v := variants[idx]
		pp, err := v.Preprocessor()
		if err != nil {
			t.Fatal(err)
		}
		net, err := zoo.Network(b, v)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = Member{Name: v.Key(), Pre: pp, Net: net}
	}
	sys, err := NewSystem(members, th)
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true

	ds, err := zoo.Dataset(b.DatasetName)
	if err != nil {
		t.Fatal(err)
	}
	const probe = 120
	for i := 0; i < probe; i++ {
		d := sys.Classify(ds.Test[i].X)
		wantOutcome := metrics.Outcome{Label: d.Label, Reliable: d.Reliable}
		if offline.Activations[i] != d.Activated {
			t.Fatalf("sample %d: live activated %d, offline %d", i, d.Activated, offline.Activations[i])
		}
		offlineOutcome := offlineOutcomeAt(testRec, th, order, i)
		if offlineOutcome != wantOutcome {
			t.Fatalf("sample %d: live %+v, offline %+v", i, wantOutcome, offlineOutcome)
		}
	}
}

// offlineOutcomeAt recomputes the staged outcome for one sample using the
// recorded outputs (mirrors Recorded.Staged for a single index).
func offlineOutcomeAt(r *Recorded, th Thresholds, order []int, s int) metrics.Outcome {
	n := r.Members()
	var rows [][]float64
	votes := map[int]int{}
	accepted, active := 0, 0
	activate := func(k int) {
		for ; active < k && active < n; active++ {
			row := r.Probs[order[active]][s]
			rows = append(rows, row)
			pred := metrics.Argmax(row)
			if row[pred] >= th.Conf {
				votes[pred]++
				accepted++
			}
		}
	}
	initial := th.Freq
	if initial < 2 {
		initial = 2
	}
	if initial > n {
		initial = n
	}
	activate(initial)
	decided := func() bool {
		_, leaderVotes, unique := modalVote(votes)
		if accepted > 0 && unique && leaderVotes >= th.Freq {
			return true
		}
		return leaderVotes+(n-active) < th.Freq
	}
	for !decided() && active < n {
		activate(active + 1)
	}
	return Decide(rows, th).Outcome()
}
