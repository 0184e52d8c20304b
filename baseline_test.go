package mindful_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// update makes the baseline tests rewrite the tracked BENCH_*.json files
// (`go test -run Baseline -update .`); without it they only assert, so
// `go test ./...` leaves the tree clean.
var update = flag.Bool("update", false, "rewrite the tracked BENCH_*.json baselines")

// writeBaseline writes v as indented JSON to the named baseline file when
// -update is set.
func writeBaseline(t *testing.T, name string, v any) {
	t.Helper()
	if !*update {
		return
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
