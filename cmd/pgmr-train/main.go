// Command pgmr-train warms the model zoo: it trains and caches every member
// network and recorded output the experiment suite needs, so subsequent
// pgmr-bench / pgmr-report runs are compute-light.
//
// Usage:
//
//	pgmr-train                 # all six benchmarks
//	pgmr-train convnet alexnet # specific benchmarks
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pgmr-train [benchmark]...\n")
	}
	flag.Parse()

	var benches []model.Benchmark
	if flag.NArg() == 0 {
		benches = model.Benchmarks()
	} else {
		for _, name := range flag.Args() {
			b, err := model.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pgmr-train:", err)
				os.Exit(2)
			}
			benches = append(benches, b)
		}
	}

	zoo := model.DefaultZoo()
	zoo.Progress = func(f string, a ...any) {
		fmt.Printf("[%s] "+f+"\n", append([]any{time.Now().Format("15:04:05")}, a...)...)
	}
	if err := warm(zoo, benches); err != nil {
		fmt.Fprintln(os.Stderr, "pgmr-train:", err)
		os.Exit(1)
	}
	fmt.Println("zoo warm")
}

func warm(zoo *model.Zoo, benches []model.Benchmark) error {
	want := func(b model.Benchmark, v model.Variant) error {
		for _, split := range []model.Split{model.SplitVal, model.SplitTest} {
			if _, err := zoo.Logits(b, v, split); err != nil {
				return fmt.Errorf("%s/%s: %w", b.Name, v.Key(), err)
			}
		}
		return nil
	}
	wideCopies := 14
	if zoo.Profile == dataset.Full {
		wideCopies = 100
	}
	for _, b := range benches {
		if err := want(b, model.Variant{}); err != nil {
			return err
		}
		for _, v := range model.CandidatePool() {
			if err := want(b, v); err != nil {
				return err
			}
		}
		inits := 5 // 6_MR and Fig. 7
		if b.Name == "convnet" {
			inits = wideCopies - 1 // Fig. 5 degrees and Fig. 13 wide ensemble
			if err := want(b, model.Variant{Preproc: "Scale(0.8)"}); err != nil {
				return err
			}
		}
		for i := 1; i <= inits; i++ {
			if err := want(b, model.Variant{Init: i}); err != nil {
				return err
			}
		}
		fmt.Printf("[%s] %s ready\n", time.Now().Format("15:04:05"), b.Name)
	}
	return nil
}
