package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// provenance says where a result came from.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Reps       int     `json:"reps"`
	TracedReps int     `json:"traced_reps"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_rep"`
	Date       string  `json:"date"`
}

// result is the benchmark of record's output file.
type result struct {
	Provenance provenance                 `json:"provenance"`
	Correct    bool                       `json:"correct"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Config string `json:"config"`
	Why    string `json:"why"`
	// Workers is the workload's worker goroutine count; a result with
	// more workers than num_cpu is not a scaling result.
	Workers       int                      `json:"workers"`
	ScalingResult bool                     `json:"scaling_result"`
	Digest        string                   `json:"digest"`
	Attempted     int64                    `json:"attempted"`
	Failed        int64                    `json:"failed"`
	Failures      []string                 `json:"failures,omitempty"`
	EndToEnd      map[string]*metricResult `json:"end_to_end"`
	PerLayer      map[string]lineMetric    `json:"per_layer"`
	SpanSelfMs    map[string]float64       `json:"span_self_ms"`
}

// metricResult is one end-to-end metric over the reps. Value is the
// headline: the median over reps, except for pooled percentiles (taken
// over every rep's samples) and error_rate (failed over attempted across
// all reps). The summary and Samples are the per-rep values.
type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Abs    float64 `json:"abs,omitempty"`
	Value  float64 `json:"value"`
	summary
	Samples []float64 `json:"samples"`
	// Pooled and Beyond describe a pooled percentile: how many samples
	// it was taken over and how many lie beyond it.
	Pooled int `json:"pooled,omitempty"`
	Beyond int `json:"beyond,omitempty"`
}

// runRecord runs every workload reps times untraced and once traced,
// each rep in a fresh child process, interleaved round-robin across
// workloads so a slow spell on a shared machine spreads over all of
// them. It prints every metric and writes result.json under out.
func runRecord(seed int64, seconds float64, reps int, out string) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	prov := newProvenance(seed, seconds, reps)
	printProvenance(prov)

	untraced := make(map[string][]*runReport)
	traced := make(map[string]*runReport)
	total := reps*len(workloads) + len(workloads)
	n := 0
	for rep := 0; rep <= reps; rep++ {
		tr := rep == reps
		for _, w := range workloads {
			n++
			fmt.Fprintf(os.Stderr, "bench: [%d/%d] %s rep %d traced=%v\n", n, total, w.name, rep, tr)
			r, err := runChild(exe, w.name, seed, seconds, tr, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if tr {
				traced[w.name] = r
			} else {
				untraced[w.name] = append(untraced[w.name], r)
			}
		}
	}

	res := aggregate(prov, untraced, traced)
	path := filepath.Join(out, "result.json")
	buf, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(res)
	fmt.Printf("wrote %s and spans-*.jsonl\n", path)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: outputs are not correct")
		return 1
	}
	return 0
}

// childTimeout bounds one rep.
const childTimeout = 170 * time.Second

// runChild runs one rep of one workload in a fresh process (which sets
// GOMAXPROCS = nproc itself) and returns its detail line.
func runChild(exe, name string, seed int64, seconds float64, traced bool, out string) (*runReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("child printed %d lines, want a detail line and the benchmark line", len(lines))
	}
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		return nil, fmt.Errorf("child detail line: %w", err)
	}
	return &rep, nil
}

// aggregate reduces the reps: end-to-end metrics from the untraced
// reps, per-layer metrics from the traced one, and the correctness
// verdict — every rep correct and every rep of a workload, the traced
// one included, producing the same digest.
func aggregate(prov provenance, untraced map[string][]*runReport, traced map[string]*runReport) *result {
	res := &result{Provenance: prov, Correct: true, Workloads: make(map[string]*workloadResult)}
	for _, w := range workloads {
		reps := untraced[w.name]
		tr := traced[w.name]
		wr := &workloadResult{
			Config:        w.config,
			Why:           w.why,
			Workers:       tr.Workers,
			ScalingResult: tr.Workers <= prov.NumCPU,
			Digest:        tr.Digest,
			EndToEnd:      make(map[string]*metricResult),
			PerLayer:      make(map[string]lineMetric),
			SpanSelfMs:    tr.SpanSelfMs,
		}
		for _, r := range append(append([]*runReport(nil), reps...), tr) {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.Failures = append(wr.Failures, r.Failures...)
			if r.Digest != wr.Digest {
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("rep digest %s differs from traced rep's %s", r.Digest, wr.Digest))
			}
		}
		for _, m := range endToEnd {
			if !m.appliesTo(w.name) {
				continue
			}
			mr := &metricResult{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Abs: m.Abs}
			for _, r := range reps {
				mr.Samples = append(mr.Samples, r.EndToEnd[m.Name])
			}
			mr.summary = summarize(mr.Samples)
			mr.Value = mr.Median
			switch {
			case m.Name == "error_rate":
				mr.Value = float64(wr.Failed) / float64(max(wr.Attempted, 1))
			case pooled[m.Name].sample == "blackout_ms":
				var all []float64
				for _, r := range reps {
					all = append(all, r.BlackoutMs...)
				}
				mr.Value, mr.Beyond = percentile(all, pooled[m.Name].p)
				mr.Pooled = len(all)
			}
			wr.EndToEnd[m.Name] = mr
		}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = lineMetric{tr.PerLayer[m.Name], m.Unit}
		}
		if wr.Failed > 0 {
			res.Correct = false
		}
		res.Workloads[w.name] = wr
	}
	return res
}

func newProvenance(seed int64, seconds float64, reps int) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       reps,
		TracedReps: 1,
		Seed:       seed,
		Seconds:    seconds,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		p.Dirty = err != nil || len(bytes.TrimSpace(status)) > 0
		return p
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func printProvenance(p provenance) {
	dirty := ""
	if p.Dirty {
		dirty = " (dirty)"
	}
	fmt.Printf("commit %s%s  %s %s/%s  num_cpu %d  GOMAXPROCS %d  reps %d+%d traced  seed %d  %gs/rep  %s\n",
		p.Commit, dirty, p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.Reps, p.TracedReps, p.Seed, p.Seconds, p.Date)
}

func printResult(res *result) {
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		scaling := ""
		if !wr.ScalingResult {
			scaling = "  [workers exceed num_cpu: not a scaling result]"
		}
		fmt.Printf("\n%s: %s%s\n", w.name, wr.Config, scaling)
		fmt.Printf("  %-18s %-9s %14s %29s %29s  %s\n", "end-to-end", "unit", "value", "[q1, q3] over reps", "[min, max] over reps", "n")
		for _, m := range endToEnd {
			mr, ok := wr.EndToEnd[m.Name]
			if !ok {
				continue
			}
			n := fmt.Sprintf("%d reps", mr.N)
			if mr.Pooled > 0 {
				n = fmt.Sprintf("%d pooled samples, %d beyond", mr.Pooled, mr.Beyond)
			}
			fmt.Printf("  %-18s %-9s %14.6g %29s %29s  %s\n", m.Name, m.Unit, mr.Value,
				fmt.Sprintf("[%.6g, %.6g]", mr.Q1, mr.Q3), fmt.Sprintf("[%.6g, %.6g]", mr.Min, mr.Max), n)
		}
		fmt.Printf("  attempted %d  failed %d  digest %s\n", wr.Attempted, wr.Failed, wr.Digest)
		for _, f := range wr.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
	fmt.Printf("\nper-layer (traced rep; 0 = the workload does not run that layer)\n%-30s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %15s", w.name)
	}
	fmt.Println()
	for _, m := range perLayer {
		fmt.Printf("%-30s %-6s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Printf(" %15.6g", res.Workloads[w.name].PerLayer[m.Name].Value)
		}
		fmt.Println()
	}
}
