package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/tensor"
)

func init() {
	register("ext-abft", ExtAbft)
}

// abftFlipTarget returns the per-backend campaign size: a tiny smoke
// campaign by default (CI budget), the full ≥1000-flip campaign under
// PGMR_FULL=1.
func abftFlipTarget() int {
	if os.Getenv("PGMR_FULL") == "1" {
		return 1000
	}
	return 100
}

// ExtAbft is an extension beyond the paper's figures: it closes the loop
// between the ABFT checksummed kernels (DESIGN.md §10) and the fault
// injector. For each numeric backend it builds the convnet system, measures
// the clean-run overhead of verified mode on ClassifyBatch at B=32, then
// runs a live-buffer bit-flip campaign (faults.KernelInjector: high-order
// mantissa/exponent flips landing in kernel output buffers) and reports the
// detection coverage, the correction outcome, and the fraction of campaign
// rounds whose decisions re-execution restored to the fault-free result.
func ExtAbft(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	ds, err := ctx.Zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	target := abftFlipTarget()

	res := &Result{
		ID: "ext-abft", Title: "ABFT checksummed kernels: overhead and injection coverage (extension; DESIGN.md §10)",
		Header: []string{"backend", "overhead@B=32", "flips", "detected", "corrected", "uncorrectable", "fault-free decisions"},
	}
	for _, backend := range []core.Backend{core.BackendF64, core.BackendF32, core.BackendInt8} {
		sys, err := core.BuildSystem(ctx.Zoo, b, design.Variants)
		if err != nil {
			return nil, err
		}
		sys.Workers = 1
		if backend != core.BackendF64 {
			for i := range sys.Members {
				sys.Members[i].Backend = backend
			}
			calib := make([]*tensor.T, 0, 16)
			for i := 0; i < len(ds.Val) && i < 16; i++ {
				calib = append(calib, ds.Val[i].X)
			}
			if err := sys.PrepareBackends(calib); err != nil {
				return nil, fmt.Errorf("ext-abft: %w", err)
			}
		}
		xs := make([]*tensor.T, 32)
		for i := range xs {
			xs[i] = ds.Test[i].X
		}

		// Clean-run overhead: best-of-three unverified vs verified walls,
		// after one warmup pass each.
		clean := sys.ClassifyBatch(xs)
		base := bestOf(3, func() { sys.ClassifyBatch(xs) })
		sys.PrepareVerified(true)
		verifiedD := sys.ClassifyBatch(xs)
		for i := range clean {
			if clean[i].Label != verifiedD[i].Label || clean[i].Reliable != verifiedD[i].Reliable {
				return nil, fmt.Errorf("ext-abft: %s verified clean decision diverges on frame %d", backend, i)
			}
		}
		wall := bestOf(3, func() { sys.ClassifyBatch(xs) })
		overhead := wall.Seconds()/base.Seconds() - 1

		// Injection campaign: every verified kernel call suffers one flip
		// until the target count is reached; a round's decisions count as
		// fault-free when re-execution restored every label and verdict.
		before := sys.AbftCounts()
		ki := faults.NewKernelInjector(131+int64(backend), 1)
		ki.Install(sys.AbftSink())
		rounds, faultFree := 0, 0
		for ki.Injected() < target {
			got := sys.ClassifyBatch(xs)
			rounds++
			ok := true
			for i := range got {
				if got[i].Label != clean[i].Label || got[i].Reliable != clean[i].Reliable {
					ok = false
					break
				}
			}
			if ok {
				faultFree++
			}
		}
		after := sys.AbftCounts()
		inj := uint64(ki.Injected())
		detected := after.Detected - before.Detected
		corrected := after.Corrected - before.Corrected
		uncorrectable := after.Uncorrectable - before.Uncorrectable

		res.AddRow(backend.String(),
			pct(overhead),
			fmt.Sprint(inj),
			fmt.Sprintf("%d (%s)", detected, pct(float64(detected)/float64(inj))),
			fmt.Sprint(corrected),
			fmt.Sprint(uncorrectable),
			fmt.Sprintf("%d/%d rounds", faultFree, rounds))
	}
	res.AddNote("4-member convnet system, staged activation, B=32; flips land in live kernel output buffers (high-order mantissa/exponent bits)")
	res.AddNote("campaign size %d flips/backend (PGMR_FULL=1 for the 1000-flip campaign)", target)
	return res, nil
}

// bestOf times fn n times and returns the fastest wall (first pass is the
// warmup and never wins).
func bestOf(n int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i <= n; i++ {
		start := time.Now()
		fn()
		if e := time.Since(start); i > 0 && e < best {
			best = e
		}
	}
	return best
}
