// Command bench is MINDFUL-Go's benchmark of record. It drives the
// program only through its public entry points — fleet.Run and
// fleet.NewPipeline, the serve gateway's HTTP control plane and TCP data
// plane, the cluster front tier and its Migrate/SessionInfo calls, and
// checkpoint.NewPipeline for reference digests — so a change to the
// program's own load generators cannot change what is measured.
//
// Run from the repository root:
//
//	bash bench/run.sh                          every workload, 5 reps + 1 traced rep
//	bash bench/run.sh -compare OLD.json NEW.json
//	bash bench/run.sh --workload fleet-clean --seed 1 --seconds 10 --trace 0
//
// The last form is one run of one workload: its last line of output is
// a JSON object with the run's correctness and metrics. README.md
// describes the workloads, the metrics and how to read -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload once and print its benchmark line")
	seed := fs.Int64("seed", pinSeed, "base seed the workload inputs derive from")
	seconds := fs.Float64("seconds", 1, "how long one run measures, in seconds (at least one iteration)")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
	reps := fs.Int("reps", 5, "untraced reps per workload in the benchmark of record")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and span JSONL")
	compare := fs.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs OLD.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *name != "":
		return runOne(*name, *seed, *seconds, *trace == 1, *out)
	default:
		return runRecord(*seed, *seconds, *reps, *out)
	}
}

// runOne is one run of one workload. It prints the run's detail as JSON
// and then the benchmark line. The exit code is 0 whenever the line is
// printed; the line's "correct" field carries the correctness verdict.
func runOne(name string, seed int64, seconds float64, traced bool, out string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	rep, err := runWorkload(w, seed, seconds, traced, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if traced {
		if err := os.MkdirAll(out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, f)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := enc.Encode(benchmarkLine(rep)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}
