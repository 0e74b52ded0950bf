// Command pgmr-train is the zoo's one writer: it trains every member
// network of model.Members whose weight file is missing and records the
// val and test outputs each member lacks, so pgmr, pgmr-bench, pgmr-report
// and polygraph.Build only ever load.
//
// Usage:
//
//	pgmr-train                 # all six benchmarks
//	pgmr-train convnet alexnet # specific benchmarks
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

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
	for _, b := range benches {
		for _, v := range model.Members(b, zoo.Profile) {
			_, err := zoo.Network(b, v)
			if errors.Is(err, fs.ErrNotExist) {
				_, err = zoo.Train(b, v)
			}
			if err != nil {
				return err
			}
			for _, split := range []model.Split{model.SplitVal, model.SplitTest} {
				if _, err := zoo.Logits(b, v, split); err != nil {
					return fmt.Errorf("%s/%s: %w", b.Name, v.Key(), err)
				}
			}
		}
		fmt.Printf("[%s] %s ready\n", time.Now().Format("15:04:05"), b.Name)
	}
	return nil
}
