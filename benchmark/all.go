package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runRecord is one child run as kept in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type resultFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload, each run in a fresh process of this same
// binary so that set-up time and peak memory are per workload: `runs`
// untraced runs on consecutive seeds, then one traced run. It prints every
// metric of every run and fails if any run was incorrect.
func runAll(seed int64, seconds float64, runs int, smoke bool, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	file := resultFile{Seconds: seconds}
	failed := false
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			rec := runRecord{Workload: w.name, Seed: seed + int64(i)}
			if i == runs {
				rec.Seed, rec.Trace = seed, 1
			}
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(rec.Seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(rec.Trace),
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			runErr := cmd.Run()
			if err := json.Unmarshal(lastLine(buf.Bytes()), &rec.result); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d trace %d printed no result (%v)\n", w.name, rec.Seed, rec.Trace, runErr)
				failed = true
				continue
			}
			if runErr != nil || !rec.Correct {
				failed = true
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: writing %s: %v\n", out, err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
