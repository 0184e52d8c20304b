package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Verdicts of a comparison.
const (
	better     = "better"
	worse      = "worse"
	same       = "same"
	unresolved = "unresolved"
)

// verdict compares one metric's OLD and NEW results. The allowance is
// the metric's bound times the old value, or its absolute floor if that
// is larger. When either side's spread between reps (q3 − q1) is wider
// than the allowance the difference cannot be told from noise: the
// verdict is unresolved, unless every NEW rep beats every OLD rep. A
// metric with no allowance at all (error_rate) is exact: any increase is
// worse.
func verdict(dir string, bound, abs float64, old, cur *metricResult) string {
	allow := math.Max(bound*math.Abs(old.Value), abs)
	worsening := cur.Value - old.Value
	if dir == higher {
		worsening = -worsening
	}
	if allow > 0 && (old.Q3-old.Q1 > allow || cur.Q3-cur.Q1 > allow) {
		if allBetter(dir, old.Samples, cur.Samples) {
			return better
		}
		return unresolved
	}
	switch {
	case worsening > allow:
		return worse
	case -worsening > allow:
		return better
	default:
		return same
	}
}

// allBetter reports whether every NEW sample beats every OLD sample.
func allBetter(dir string, old, cur []float64) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, n := range cur {
		for _, o := range old {
			if (dir == higher && n <= o) || (dir == lower && n >= o) {
				return false
			}
		}
	}
	return true
}

func loadResult(path string) (*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(buf, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareFiles prints one row per workload × end-to-end metric present
// in both files and exits non-zero if any row is worse. Bounds come from
// this binary's metric table, so both files are judged alike.
func compareFiles(oldPath, newPath string) int {
	old, err := loadResult(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	cur, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("OLD %s (%s)\nNEW %s (%s)\n", oldPath, old.Provenance.Commit, newPath, cur.Provenance.Commit)
	fmt.Printf("%-16s %-16s %-9s %26s %26s %9s  %s\n", "workload", "metric", "unit", "OLD value [q1, q3]", "NEW value [q1, q3]", "delta", "verdict")
	worseRows := 0
	for _, w := range workloads {
		ow, nw := old.Workloads[w.name], cur.Workloads[w.name]
		if ow == nil || nw == nil {
			continue
		}
		for _, m := range endToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if o == nil || n == nil {
				continue
			}
			v := verdict(m.Better, m.Bound, m.Abs, o, n)
			if v == worse {
				worseRows++
			}
			delta := "n/a"
			if o.Value != 0 {
				delta = fmt.Sprintf("%+.1f%%", (n.Value-o.Value)/math.Abs(o.Value)*100)
			}
			fmt.Printf("%-16s %-16s %-9s %26s %26s %9s  %s\n", w.name, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", o.Value, o.Q1, o.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", n.Value, n.Q1, n.Q3), delta, v)
		}
	}
	if worseRows > 0 {
		fmt.Printf("%d metric(s) worse beyond their bound\n", worseRows)
		return 1
	}
	return 0
}
