// Quickstart: build a 4-member PolygraphMR system on the CIFAR-10
// substitute and classify a handful of test images, printing the
// reliability verdict for each.
//
// Run from the repository root:
//
//	go run ./examples/quickstart
//
// It loads the trained member CNNs committed under testdata/zoo; nothing
// is trained.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	sys, err := polygraph.Build("convnet", polygraph.Options{
		Members:  4,
		Progress: func(f string, a ...any) { log.Printf(f, a...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	conf, freq := sys.Thresholds()
	fmt.Printf("PolygraphMR ready: members=[%s], Thr_Conf=%.2f, Thr_Freq=%d\n\n",
		strings.Join(sys.Members(), ", "), conf, freq)

	images, labels, err := polygraph.TestImages("convnet", 20)
	if err != nil {
		log.Fatal(err)
	}
	for i, im := range images {
		pred, err := sys.Classify(im)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "RELIABLE  "
		if !pred.Reliable {
			verdict = "unreliable"
		}
		status := "correct"
		if pred.Label != labels[i] {
			status = "WRONG"
		}
		fmt.Printf("image %2d: class %d (true %d, %s) — %s, confidence %.2f, %d/4 networks ran\n",
			i, pred.Label, labels[i], status, verdict, pred.Confidence, pred.Activated)
	}

	fmt.Println("\nUnreliable predictions should be escalated (e.g. to a human or a")
	fmt.Println("larger model) instead of acted on — that is PolygraphMR's contract.")
}
