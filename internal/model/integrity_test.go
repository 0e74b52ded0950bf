package model

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/precision"
)

// TestCommittedZooDecodes holds testdata/zoo to what the zoo loads: every
// member of Members has its weight file and its val and test recordings,
// every weight file decodes into its benchmark's topology, every recording
// decodes with one row per sample of its split, and every file is named by
// a member, a split and (for recordings) a precision-sweep tag. Files are
// read only; nothing is trained or written.
func TestCommittedZooDecodes(t *testing.T) {
	z := NewZoo(DefaultZoo().Dir, dataset.Fast) // the committed profile
	entries, err := os.ReadDir(z.Dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		onDisk[e.Name()] = true
	}

	var bad []string
	check := func(path string, required bool, load func(string) error) {
		name := filepath.Base(path)
		if !onDisk[name] {
			if required {
				bad = append(bad, name+": missing")
			}
			return
		}
		delete(onDisk, name)
		if err := load(path); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", name, err))
		}
	}
	tags := []string{""}
	for _, bits := range precision.SweepBits(z.Profile) {
		if bits < 32 {
			tags = append(tags, fmt.Sprintf("__b%02d", bits))
		}
	}
	for _, b := range Benchmarks() {
		ds, err := z.Dataset(b.DatasetName)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range Members(b, z.Profile) {
			check(z.netPath(b, v), true, func(path string) error {
				return b.Build(newRandFor(seedFor(b.Name, v)), ds.Classes, ds.InShape).LoadParamsFile(path)
			})
			for _, split := range []Split{SplitVal, SplitTest} {
				rows := len(SplitSamples(ds, split))
				for _, tag := range tags {
					check(z.logitsPath(b, v, split, tag), tag == "", func(path string) error {
						ls, err := loadLogits(path)
						if err == nil && len(ls) != rows {
							err = fmt.Errorf("%d rows, split has %d", len(ls), rows)
						}
						return err
					})
				}
			}
		}
	}
	for name := range onDisk {
		bad = append(bad, name+": named by no member, split or sweep tag")
	}
	sort.Strings(bad)
	for _, line := range bad {
		t.Error(line)
	}
	if len(bad) > 0 {
		t.Errorf("%d problems in %s (%d files)", len(bad), z.Dir, len(entries))
	}
}
