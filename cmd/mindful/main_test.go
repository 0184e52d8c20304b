package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("runner failed: %v", runErr)
	}
	return out
}

func TestRunnersProduceOutput(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
		want []string
	}{
		{"table1", runTable1, []string{"BISC", "Neuralink", "HALO"}},
		{"fig4", runFig4, []string{"Fig. 4", "HALO*", "true", "HALO (unscaled)", "false"}},
		{"fig5", runFig5, []string{"naive", "high-margin", "P/Budget"}},
		{"fig6", runFig6, []string{"sensing area fraction"}},
		{"fig7", runFig7, []string{"QAM", "Average supportable channels"}},
		{"fig9", runFig9, []string{"MACseq", "PE/Layer"}},
		{"fig10", runFig10, []string{"MLP", "DN-CNN", "Average over SoCs feasible at 1024"}},
		{"fig11", runFig11, []string{"partitioning", "Average gain"}},
		{"fig12", runFig12, []string{"ChDr", "La+ChDr+Tech+Dense"}},
		{"ablate", runAblate, []string{"depth-scaling", "flux split", "break-even"}},
		{"observe", runObserve, []string{"instrumented", "accepted", "MAC units"}},
		{"ext", runExt, []string{"Wireless power", "density wall", "stimulation"}},
		{"validate", runValidate, []string{"Pennes", "within the budget"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := capture(t, tc.fn)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q", tc.name, want)
				}
			}
		})
	}
}

// TestObserveMetricsSnapshot checks the acceptance path: an observe run
// exported with -metrics yields Prometheus text naming the fleet's
// shard-labeled frame, bit and bit-error counters, the wearable's
// accepted-frame counter and the thermal max-ΔT gauge.
func TestObserveMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	*metricsPath = filepath.Join(dir, "obs.prom")
	defer func() { *metricsPath = "" }()
	out := capture(t, runObserve)
	if err := writeObsOutputs(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BER", "FER", "corrupt", "lost", "Stage timing", "transport"} {
		if !strings.Contains(out, want) {
			t.Errorf("observe output missing %q:\n%s", want, out)
		}
	}
	prom, err := os.ReadFile(*metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE fleet_frames_total counter",
		`fleet_frames_total{shard="0"}`,
		`fleet_bits_sent_total{shard="0"}`,
		`fleet_bit_errors_total{shard="0"}`,
		`fleet_frames_accepted_total{shard="0"}`,
		"# TYPE thermal_max_rise_celsius gauge",
		`thermal_max_rise_celsius{solver="steady1d"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

// runSubcommand parses argv as the top-level CLI would and runs the
// named subcommand runner, returning its stdout.
func runSubcommand(t *testing.T, fn func() error, argv ...string) string {
	t.Helper()
	if err := flag.CommandLine.Parse(argv); err != nil {
		t.Fatal(err)
	}
	defer flag.CommandLine.Parse(nil)
	return capture(t, fn)
}

// TestFleetQAMBound: a -qam value outside 0..comm.MaxQAMBits is a usage
// error, not a panic in the modem constructor or an out-of-memory in
// config validation.
func TestFleetQAMBound(t *testing.T) {
	defer flag.CommandLine.Parse(nil)
	for _, qam := range []string{"-2", "18", "64", "200"} {
		if err := flag.CommandLine.Parse([]string{"fleet", "-n", "1", "-ticks", "4", "-qam", qam}); err != nil {
			t.Fatal(err)
		}
		if err := runFleet(); err == nil {
			t.Errorf("-qam %s accepted", qam)
		}
	}
}

// TestFleetDecoderFlag: `mindful fleet -decoder kalman` runs the decode
// stage and reports its accounting; an unknown decoder name is a usage
// error.
func TestFleetDecoderFlag(t *testing.T) {
	out := runSubcommand(t, runFleet,
		"fleet", "-n", "2", "-ticks", "16", "-channels", "8", "-decoder", "kalman")
	for _, want := range []string{"decoder kalman", "decode-digest"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet -decoder output missing %q:\n%s", want, out)
		}
	}
	if err := flag.CommandLine.Parse([]string{"fleet", "-n", "2", "-decoder", "transformer"}); err != nil {
		t.Fatal(err)
	}
	defer flag.CommandLine.Parse(nil)
	if err := runFleet(); err == nil {
		t.Fatal("unknown decoder name accepted")
	}
}

func TestCSVAndSVGOutput(t *testing.T) {
	dir := t.TempDir()
	*csvDir = dir
	*svgDir = dir
	defer func() { *csvDir, *svgDir = "", "" }()
	capture(t, runFig4)
	csv, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(csv), "BISC") {
		t.Errorf("csv content wrong")
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig4.svg"))
	if err != nil {
		t.Fatalf("svg not written: %v", err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Errorf("svg content wrong")
	}
}

// TestImplantFlows: every dataflow runs and prints the power and safety
// report, and the implant reports into the process-wide observer, so the
// global -metrics and -trace flags capture its counters and tick spans.
func TestImplantFlows(t *testing.T) {
	cases := []struct {
		flow string
		want []string
	}{
		{"comm", []string{"communication-centric", "Frames sent:        2000\n", "reduction 0.92×", "Safety:             SAFE"}},
		{"compute", []string{"computation-centric", "(2000 DNN inferences)", "reduction 2.50×", "Last DNN output:    40 values"}},
		{"feature", []string{"feature-centric", "Frames sent:        100\n", "Feature vectors:    100\n", "reduction 18.39×"}},
		{"spike", []string{"spike-centric", "Frames sent:        908\n", "Spike events:       1555\n", "reduction 21.03×"}},
	}
	for _, tc := range cases {
		t.Run(tc.flow, func(t *testing.T) {
			out := runSubcommand(t, runImplant, "implant", "-flow", tc.flow)
			for _, want := range append(tc.want, "Power:", "Uplink rate:") {
				if !strings.Contains(out, want) {
					t.Errorf("implant -flow %s output missing %q:\n%s", tc.flow, want, out)
				}
			}
		})
	}
	if err := flag.CommandLine.Parse([]string{"implant", "-flow", "optical"}); err != nil {
		t.Fatal(err)
	}
	defer flag.CommandLine.Parse(nil)
	if err := runImplant(); err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown flow: error %v, want a plain (exit 1) error", err)
	}
}

// TestImplantObserved: the implant's counters and per-tick spans land in
// the -metrics and -trace snapshots.
func TestImplantObserved(t *testing.T) {
	dir := t.TempDir()
	*metricsPath = filepath.Join(dir, "implant.prom")
	*tracePath = filepath.Join(dir, "implant.jsonl")
	defer func() { *metricsPath, *tracePath = "", "" }()
	runSubcommand(t, runImplant, "implant", "-seconds", "0.05")
	if err := writeObsOutputs(); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(*metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE implant_frames_total counter",
		`implant_frames_total{flow="communication-centric"}`,
		`implant_bits_sent_total{flow="communication-centric"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	trace, err := os.ReadFile(*tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"name":"implant.tick"`) {
		t.Errorf("trace snapshot missing implant.tick spans")
	}
}

// TestSoC: list, show and scale print the Table 1 queries; a malformed
// command line is a usage error (exit 2) and a bad design number or
// channel count a plain error (exit 1).
func TestSoC(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want []string
	}{
		{[]string{"soc", "list"}, []string{"Name", "BISC", "Neuralink", "HALO"}},
		{[]string{"soc", "show", "1"}, []string{"NI type:", "at 1024 ch:", "safety:"}},
		{[]string{"soc", "scale", "1"}, []string{"projected to 4096 channels", "naive:", "high-margin:", "raw data rate:"}},
		{[]string{"soc", "scale", "2", "2048"}, []string{"projected to 2048 channels"}},
	} {
		out := runSubcommand(t, runSoC, tc.argv...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%v output missing %q:\n%s", tc.argv, want, out)
			}
		}
	}
	defer flag.CommandLine.Parse(nil)
	for _, tc := range []struct {
		argv  []string
		usage bool
	}{
		{[]string{"soc"}, true},
		{[]string{"soc", "drop"}, true},
		{[]string{"soc", "show"}, true},
		{[]string{"soc", "show", "x"}, false},
		{[]string{"soc", "show", "12"}, false},
		{[]string{"soc", "scale", "1", "0"}, false},
	} {
		if err := flag.CommandLine.Parse(tc.argv); err != nil {
			t.Fatal(err)
		}
		err := runSoC()
		if err == nil || errors.Is(err, errUsage) != tc.usage {
			t.Errorf("%v: error %v, want usage error %v", tc.argv, err, tc.usage)
		}
	}
}
