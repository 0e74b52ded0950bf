package model

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// refuses plants garbage at path, one of b's files, and asserts that load
// fails naming the file and the pgmr-train command that remakes it, that
// the bytes on disk are unchanged and that nothing else is written.
func refuses(t *testing.T, zoo *Zoo, b Benchmark, path string, load func() error) {
	t.Helper()
	garbage := []byte("not a gob snapshot")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	zoo.Progress = func(f string, _ ...any) { t.Errorf("zoo logged %q on a corrupt file", f) }
	err := load()
	if err == nil {
		t.Fatal("corrupt file accepted")
	}
	for _, want := range []string{filepath.Base(path), "go run ./cmd/pgmr-train " + b.Name} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, garbage) {
		t.Errorf("corrupt file rewritten: %q", got)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Errorf("%d files in the zoo dir, want only the planted one", len(entries))
	}
}

// TestZooRefusesCorruptNet: a weight file that does not decode is an
// error naming the file and pgmr-train; nothing is trained or written.
func TestZooRefusesCorruptNet(t *testing.T) {
	zoo := NewZoo(t.TempDir(), dataset.Fast)
	b := tinyBenchmark()
	refuses(t, zoo, b, zoo.netPath(b, Variant{}), func() error {
		_, err := zoo.Logits(b, Variant{}, SplitVal)
		return err
	})
}

// TestZooRefusesCorruptLogits: a recording that does not decode is an
// error naming the file and pgmr-train, not a silent re-recording over it.
func TestZooRefusesCorruptLogits(t *testing.T) {
	zoo := NewZoo("", dataset.Fast)
	b := tinyBenchmark()
	mustTrain(t, zoo, b, Variant{})
	zoo.Dir = t.TempDir()
	refuses(t, zoo, b, zoo.logitsPath(b, Variant{}, SplitVal, ""), func() error {
		_, err := zoo.Logits(b, Variant{}, SplitVal)
		return err
	})
}

// TestZooMemoryOnlyMode verifies a dir-less zoo works end to end without
// touching the filesystem.
func TestZooMemoryOnlyMode(t *testing.T) {
	zoo := NewZoo("", dataset.Fast)
	b := tinyBenchmark()
	if _, err := zoo.Network(b, Variant{}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("untrained member: err %v, want fs.ErrNotExist", err)
	}
	mustTrain(t, zoo, b, Variant{Preproc: "FlipY"})
	if _, err := zoo.Logits(b, Variant{Preproc: "FlipY"}, SplitTest); err != nil {
		t.Fatal(err)
	}
	if acc, err := zoo.Accuracy(b, Variant{Preproc: "FlipY"}, SplitTest); err != nil || acc == 0 {
		t.Fatalf("accuracy %v, err %v", acc, err)
	}
}

// TestZooUnknownDatasetAndPreprocessor covers the error paths.
func TestZooUnknownDatasetAndPreprocessor(t *testing.T) {
	zoo := NewZoo("", dataset.Fast)
	if _, err := zoo.Dataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
	b := tinyBenchmark()
	if _, err := zoo.Train(b, Variant{Preproc: "Bogus"}); err == nil {
		t.Error("unknown preprocessor accepted")
	}
	b2 := b
	b2.DatasetName = "missing"
	if _, err := zoo.Train(b2, Variant{}); err == nil {
		t.Error("benchmark with missing dataset accepted")
	}
}
