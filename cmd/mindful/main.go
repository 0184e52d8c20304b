// Command mindful is MINDFUL-Go's one command. It regenerates the
// paper's evaluation artifacts — Table 1 and Figures 4–7 and 9–12, each
// an aligned table and an ASCII chart, with -csv and -svg writing
// machine-readable and vector outputs — runs the virtual implant, queries
// the Table 1 design database, and drives the fleet simulator, the
// serving gateway and the sharded cluster.
//
// Usage:
//
//	mindful [flags] <table1|fig4|fig5|fig6|fig7|fig9|fig10|fig11|fig12|fleet|observe|all|validate>
//	mindful [flags] fleet [-n N] [-workers K] [-ticks T] [-scaling FILE]
//	               [-faults I] [-arq N] [-fec D] [-conceal MODE] [-fault-sweep FILE]
//	mindful [flags] implant [-channels N] [-flow comm|compute|feature|spike]
//	               [-seconds S] [-labels L] [-area MM2]
//	mindful soc <list | show NUM | scale NUM [CHANNELS]>
//
// Flags:
//
//	-csv DIR          also write <name>.csv into DIR
//	-svg DIR          also write <name>.svg into DIR
//	-metrics FILE     write a Prometheus-text metrics snapshot at exit
//	-trace FILE       write the span trace as JSON lines at exit
//	-events FILE      write the flight-recorder event log as JSON lines at exit
//	-debug-addr ADDR  serve /metrics, /trace, expvar and pprof while running
//
// The observe subcommand runs one fleet at the default operating point
// with the observer and the stage flight recorder attached, plus the
// thermal and scheduling solvers, so -metrics captures a snapshot that
// spans every layer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"mindful/internal/dnnmodel"
	"mindful/internal/experiments"
	"mindful/internal/optimize"
	"mindful/internal/report"
	"mindful/internal/sched"
	"mindful/internal/thermal"
	"mindful/internal/units"
	"mindful/internal/wpt"
)

var (
	csvDir = flag.String("csv", "", "directory for CSV output (optional)")
	svgDir = flag.String("svg", "", "directory for SVG output (optional)")
)

// errUsage marks a subcommand flag-parsing failure: the flag package has
// already written the message (or help text) to stderr, so main only
// needs the usage exit code.
var errUsage = errors.New("usage error")

// hasOwnFlags lists the subcommands that parse their own flags from the
// remaining arguments.
var hasOwnFlags = map[string]bool{"fleet": true, "profile": true, "serve": true, "cluster": true, "implant": true, "soc": true}

func main() {
	flag.Usage = usage
	flag.Parse()
	// Every subcommand takes exactly one positional argument except the
	// ones that parse their own flags from the remainder.
	if flag.NArg() < 1 || (flag.NArg() > 1 && !hasOwnFlags[flag.Arg(0)]) {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	runners := map[string]func() error{
		"table1":   runTable1,
		"fig4":     runFig4,
		"fig5":     runFig5,
		"fig6":     runFig6,
		"fig7":     runFig7,
		"fig9":     runFig9,
		"fig10":    runFig10,
		"fig11":    runFig11,
		"fig12":    runFig12,
		"ablate":   runAblate,
		"ext":      runExt,
		"fleet":    runFleet,
		"profile":  runProfile,
		"serve":    runServe,
		"cluster":  runCluster,
		"observe":  runObserve,
		"implant":  runImplant,
		"soc":      runSoC,
		"validate": runValidate,
	}
	// The scheduler backs most figure runners; wiring its package-level
	// hook here means any subcommand's -metrics snapshot carries the
	// solves it triggered.
	sched.SetObserver(observer)
	stopDebug, err := startDebug()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := writeObsOutputs(); err != nil {
			fail(err)
		}
		if err := stopDebug(); err != nil {
			fail(err)
		}
	}()
	if cmd == "all" {
		for _, name := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12"} {
			if err := runners[name](); err != nil {
				fail(err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "mindful: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		fail(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mindful [-csv DIR] [-svg DIR] [-metrics FILE] [-trace FILE] [-events FILE] [-debug-addr ADDR] <table1|fig4|fig5|fig6|fig7|fig9|fig10|fig11|fig12|ablate|ext|fleet|profile|serve|cluster|observe|implant|soc|all|validate>")
	fmt.Fprintln(os.Stderr, "       mindful fleet [-n N] [-workers K] [-ticks T] [-channels C] [-qam B] [-ebn0 DB] [-seed S] [-scaling FILE]")
	fmt.Fprintln(os.Stderr, "                     [-faults I] [-arq N] [-fec D] [-conceal none|hold|interp] [-fault-sweep FILE] [-stage-timing]")
	fmt.Fprintln(os.Stderr, "       mindful profile [fleet pipeline flags] [-out FILE]")
	fmt.Fprintln(os.Stderr, "       mindful implant [-channels N] [-flow comm|compute|feature|spike] [-seconds S] [-labels L] [-area MM2]")
	fmt.Fprintln(os.Stderr, "       mindful soc <list | show NUM | scale NUM [CHANNELS]>")
	fmt.Fprintln(os.Stderr, "       mindful serve [-ctl ADDR] [-stream ADDR] [-snapshot-dir DIR] [-max-sessions N] [-queue N] [-stall D] [-tick-interval D]")
	fmt.Fprintln(os.Stderr, "       mindful cluster [-shards N] [-sessions N] [-subs N] [-ticks T] [-migrations M] [-kill] [-chaos-seed S] [-chaos-intensities L] [-chaos-out FILE]")
	flag.PrintDefaults()
}

func fail(err error) {
	if errors.Is(err, errUsage) {
		// The flag package already reported the details on stderr.
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "mindful:", err)
	os.Exit(1)
}

func emit(name string, tb *report.Table, chart *report.Chart) error {
	fmt.Print(tb.String())
	if chart != nil {
		fmt.Println()
		fmt.Print(chart.ASCII(72, 18))
	}
	if *csvDir != "" {
		if err := writeFile(*csvDir, name+".csv", tb.CSV()); err != nil {
			return err
		}
	}
	if *svgDir != "" && chart != nil {
		if err := writeFile(*svgDir, name+".svg", chart.SVG(640, 400)); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func f(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

func runTable1() error {
	tb := report.NewTable("Table 1: published implanted SoC designs",
		"#", "SoC", "NI", "Ch", "Area [mm²]", "Pd [mW/cm²]", "f [kHz]", "Wireless", "P [mW]")
	for _, r := range experiments.Table1() {
		d := r.Design
		tb.AddRow(strconv.Itoa(d.Num), d.Name, string(d.NI), strconv.Itoa(d.Channels),
			f(d.Area.MM2(), 2), f(d.Density.MWPerCM2(), 1), f(d.SampleRate.KHz(), 0),
			fmt.Sprint(d.Wireless), f(r.PowerMW, 2))
	}
	return emit("table1", tb, nil)
}

func runFig4() error {
	rows := experiments.Fig4()
	tb := report.NewTable("Fig. 4: designs scaled to 1024 channels vs the power budget",
		"#", "SoC", "Area [mm²]", "P [mW]", "Pd [mW/cm²]", "Budget [mW]", "Safe")
	chart := &report.Chart{
		Title:  "Fig. 4: power vs area at 1024 channels (log power)",
		XLabel: "area [mm²]", YLabel: "power [mW]", LogY: true,
	}
	var px, py []float64
	for _, r := range rows {
		tb.AddRow(strconv.Itoa(r.SoC), r.Name, f(r.AreaMM2, 2), f(r.PowerMW, 2),
			f(r.DensityMW, 1), f(r.BudgetMW, 2), fmt.Sprint(r.Safe))
		px = append(px, r.AreaMM2)
		py = append(py, r.PowerMW)
	}
	chart.Series = []report.Series{{Name: "scaled designs", X: px, Y: py}}
	// The budget line P = 0.4 mW/mm² · A.
	var bx, by []float64
	for a := 1.0; a <= 180; a += 5 {
		bx = append(bx, a)
		by = append(by, 0.4*a)
	}
	chart.Series = append(chart.Series, report.Series{Name: "power budget", X: bx, Y: by})
	return emit("fig4", tb, chart)
}

func runFig5() error {
	for _, h := range []experiments.Hypothesis{experiments.Naive, experiments.HighMargin} {
		rows := experiments.Fig5(h)
		tb := report.NewTable(fmt.Sprintf("Fig. 5 (%s design): SoC power vs budget", h),
			"SoC", "Channels", "Sensing [mW]", "Non-sensing [mW]", "Budget [mW]", "P/Budget")
		chart := &report.Chart{
			Title:  fmt.Sprintf("Fig. 5 (%s): P_SoC/P_budget vs channels", h),
			XLabel: "channels", YLabel: "P/Budget",
		}
		series := map[int]*report.Series{}
		var order []int
		for _, r := range rows {
			tb.AddRow(strconv.Itoa(r.SoC), strconv.Itoa(r.Channels), f(r.SensingMW, 2),
				f(r.NonSensingMW, 2), f(r.BudgetMW, 2), f(r.Ratio, 3))
			s, ok := series[r.SoC]
			if !ok {
				s = &report.Series{Name: fmt.Sprintf("SoC %d", r.SoC)}
				series[r.SoC] = s
				order = append(order, r.SoC)
			}
			s.X = append(s.X, float64(r.Channels))
			s.Y = append(s.Y, r.Ratio)
		}
		sort.Ints(order)
		for _, num := range order {
			chart.Series = append(chart.Series, *series[num])
		}
		if err := emit("fig5_"+h.String(), tb, chart); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig6() error {
	for _, h := range []experiments.Hypothesis{experiments.Naive, experiments.HighMargin} {
		rows := experiments.Fig6(h)
		tb := report.NewTable(fmt.Sprintf("Fig. 6 (%s design): sensing area fraction", h),
			"SoC", "Channels", "A_sensing/A_SoC")
		chart := &report.Chart{
			Title:  fmt.Sprintf("Fig. 6 (%s): sensing area fraction vs channels", h),
			XLabel: "channels", YLabel: "fraction",
		}
		series := map[int]*report.Series{}
		var order []int
		for _, r := range rows {
			tb.AddRow(strconv.Itoa(r.SoC), strconv.Itoa(r.Channels), f(r.Fraction, 3))
			s, ok := series[r.SoC]
			if !ok {
				s = &report.Series{Name: fmt.Sprintf("SoC %d", r.SoC)}
				series[r.SoC] = s
				order = append(order, r.SoC)
			}
			s.X = append(s.X, float64(r.Channels))
			s.Y = append(s.Y, r.Fraction)
		}
		sort.Ints(order)
		for _, num := range order {
			chart.Series = append(chart.Series, *series[num])
		}
		if err := emit("fig6_"+h.String(), tb, chart); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig7() error {
	rows, err := experiments.Fig7(experiments.DefaultFig7Config())
	if err != nil {
		return err
	}
	tb := report.NewTable("Fig. 7: minimum QAM efficiency to meet the power budget",
		"SoC", "Channels", "Bits/symbol", "Min efficiency [%]")
	for _, r := range rows {
		if r.Channels%512 != 0 {
			continue // table at coarse steps; the chart keeps all points
		}
		tb.AddRow(strconv.Itoa(r.SoC), strconv.Itoa(r.Channels),
			strconv.Itoa(r.BitsPerSymbol), f(r.MinEfficiency*100, 1))
	}
	ns, avg := experiments.Fig7AverageCurve(rows)
	chart := &report.Chart{
		Title:  "Fig. 7: average minimum QAM efficiency vs channels",
		XLabel: "channels", YLabel: "efficiency",
	}
	var x, y []float64
	for i, n := range ns {
		x = append(x, float64(n))
		y = append(y, avg[i])
	}
	chart.Series = []report.Series{{Name: "average over SoCs 1–8", X: x, Y: y}}
	if err := emit("fig7", tb, chart); err != nil {
		return err
	}
	_, at15 := experiments.Fig7MaxChannelsAt(rows, 0.15)
	_, at20 := experiments.Fig7MaxChannelsAt(rows, 0.20)
	_, at100 := experiments.Fig7MaxChannelsAt(rows, 1.00)
	fmt.Printf("\nAverage supportable channels: %.0f @15%%, %.0f @20%%, %.0f @100%% efficiency\n", at15, at20, at100)
	return nil
}

func runFig9() error {
	rows := experiments.Fig9()
	tb := report.NewTable("Fig. 9: accelerator design points (130 nm, 100 MHz)",
		"Design", "MACseq", "MAChw", "#MACop", "Layer [mW]", "PE [mW]", "PE/Layer [%]")
	chart := &report.Chart{
		Title:  "Fig. 9: layer power and PE share per design point",
		XLabel: "design point", YLabel: "power [mW] (log)",
		LogY: true,
	}
	var x, layer, pe []float64
	for _, r := range rows {
		tb.AddRow(strconv.Itoa(r.Design), strconv.Itoa(r.MACSeq), strconv.Itoa(r.MACHW),
			strconv.Itoa(r.MACOps), f(r.LayerMW, 2), f(r.PEMW, 2), f(r.PEFraction*100, 1))
		x = append(x, float64(r.Design))
		layer = append(layer, r.LayerMW)
		pe = append(pe, r.PEMW)
	}
	chart.Series = []report.Series{
		{Name: "layer power", X: x, Y: layer},
		{Name: "PE power", X: x, Y: pe},
	}
	return emit("fig9", tb, chart)
}

func runFig10() error {
	for _, tmpl := range dnnmodel.Templates() {
		rows, err := experiments.Fig10(tmpl)
		if err != nil {
			return err
		}
		tb := report.NewTable(fmt.Sprintf("Fig. 10 (%s): normalized SoC power with on-implant DNN", tmpl.Name),
			"SoC", "Channels", "P/Budget", "Feasible")
		chart := &report.Chart{
			Title:  fmt.Sprintf("Fig. 10 (%s): P_SoC/P_budget vs channels", tmpl.Name),
			XLabel: "channels", YLabel: "P/Budget",
		}
		series := map[int]*report.Series{}
		var order []int
		for _, r := range rows {
			tb.AddRow(strconv.Itoa(r.SoC), strconv.Itoa(r.Channels), f(r.Utilization, 2), fmt.Sprint(r.Feasible))
			s, ok := series[r.SoC]
			if !ok {
				s = &report.Series{Name: fmt.Sprintf("SoC %d", r.SoC)}
				series[r.SoC] = s
				order = append(order, r.SoC)
			}
			s.X = append(s.X, float64(r.Channels))
			s.Y = append(s.Y, r.Utilization)
		}
		sort.Ints(order)
		for _, num := range order {
			chart.Series = append(chart.Series, *series[num])
		}
		if err := emit("fig10_"+tmpl.Name, tb, chart); err != nil {
			return err
		}
		perSoC, avg, err := experiments.Fig10Crossovers(tmpl)
		if err != nil {
			return err
		}
		var nums []int
		for num := range perSoC {
			nums = append(nums, num)
		}
		sort.Ints(nums)
		fmt.Printf("\nMax feasible channels per SoC (%s): ", tmpl.Name)
		for _, num := range nums {
			fmt.Printf("SoC%d=%d ", num, perSoC[num])
		}
		fmt.Printf("\nAverage over SoCs feasible at 1024: %.0f\n\n", avg)
	}
	return nil
}

func runFig11() error {
	rows, err := experiments.Fig11()
	if err != nil {
		return err
	}
	tb := report.NewTable("Fig. 11: channel-count increase from DNN partitioning",
		"SoC", "Model", "Max (full)", "Max (partitioned)", "Increase")
	var bars []report.Bar
	for _, r := range rows {
		tb.AddRow(strconv.Itoa(r.SoC), r.Model, strconv.Itoa(r.MaxFull),
			strconv.Itoa(r.MaxPartition), f(r.Increase, 3))
		bars = append(bars, report.Bar{Label: fmt.Sprintf("%s SoC %d", r.Model, r.SoC), Value: r.Increase})
	}
	fmt.Print(tb.String())
	fmt.Println()
	fmt.Print(report.BarChart("Fig. 11: increase vs full DNN (1.0 = original)", "×", bars, 40))
	fmt.Printf("\nAverage gain: MLP %.0f%%, DN-CNN %.0f%%\n",
		experiments.Fig11AverageGain(rows, "MLP")*100,
		experiments.Fig11AverageGain(rows, "DN-CNN")*100)
	if *csvDir != "" {
		return writeFile(*csvDir, "fig11.csv", tb.CSV())
	}
	return nil
}

func runFig12() error {
	rows, err := experiments.Fig12()
	if err != nil {
		return err
	}
	tb := report.NewTable("Fig. 12: feasible MLP model size after combined optimizations",
		"SoC", "Channels", "Step", "Active ch", "Model size [%]")
	for _, r := range rows {
		tb.AddRow(strconv.Itoa(r.SoC), strconv.Itoa(r.Channels), r.Step.String(),
			strconv.Itoa(r.ActiveChannels), f(r.ModelFraction*100, 1))
	}
	fmt.Print(tb.String())
	for _, n := range []int{2048, 4096, 8192} {
		avgs := experiments.Fig12Averages(rows, n)
		var bars []report.Bar
		for _, s := range optimize.Steps() {
			bars = append(bars, report.Bar{Label: s.String(), Value: avgs[s] * 100})
		}
		fmt.Println()
		fmt.Print(report.BarChart(fmt.Sprintf("Average model size at n = %d", n), "%", bars, 40))
	}
	if *csvDir != "" {
		return writeFile(*csvDir, "fig12.csv", tb.CSV())
	}
	return nil
}

func runAblate() error {
	fmt.Println("Ablations: sensitivity of the headline results to modeling choices")
	fmt.Println("===================================================================")

	depth, err := experiments.AblateDepthPolicy()
	if err != nil {
		return err
	}
	tb := report.NewTable("DNN depth-scaling policy → Fig. 10 MLP crossover average",
		"Policy", "Avg max channels")
	for _, r := range depth {
		tb.AddRow(r.Policy, f(r.AvgCrossover, 0))
	}
	fmt.Println()
	fmt.Print(tb.String())

	splits, err := experiments.AblateSensingSplit([]float64{0.3, 0.4, 0.5})
	if err != nil {
		return err
	}
	tb = report.NewTable("Sensing-area fraction → Fig. 5 crossing claim & Fig. 10 crossover",
		"Area fraction", "All SoCs cross", "MLP avg crossover")
	for _, r := range splits {
		tb.AddRow(f(r.AreaFrac, 1), fmt.Sprint(r.AllCross), f(r.MLPAvgCrossover, 0))
	}
	fmt.Println()
	fmt.Print(tb.String())

	losses, err := experiments.AblateQAMLoss([]float64{6, 8, 10})
	if err != nil {
		return err
	}
	tb = report.NewTable("QAM implementation loss → Fig. 7 annotations",
		"Loss [dB]", "Ch @15%", "Ch @20%", "Ch @100%")
	for _, r := range losses {
		tb.AddRow(f(r.ImplLossDB, 0), f(r.At15, 0), f(r.At20, 0), f(r.At100, 0))
	}
	fmt.Println()
	fmt.Print(tb.String())

	scheds, err := experiments.AblateScheduling([]int{128, 1024, 2048})
	if err != nil {
		return err
	}
	tb = report.NewTable("Scheduling discipline → MAC-unit lower bound",
		"Model", "Channels", "Non-pipelined", "Pipelined", "Best")
	for _, r := range scheds {
		best := "non-pipelined"
		if r.BestIsPipe {
			best = "pipelined"
		}
		tb.AddRow(r.Model, strconv.Itoa(r.Channels), strconv.Itoa(r.NonPipelined),
			strconv.Itoa(r.Pipelined), best)
	}
	fmt.Println()
	fmt.Print(tb.String())

	flux, err := experiments.AblateFluxSplit([]float64{0.3, 0.5, 0.7})
	if err != nil {
		return err
	}
	tb = report.NewTable("Thermal flux split → tissue rise at 40 mW/cm²",
		"Flux into brain", "Rise [°C]", "In 1–2 °C window")
	for _, r := range flux {
		tb.AddRow(f(r.FluxSplit, 1), f(r.RiseAtLimit, 2), fmt.Sprint(r.WithinPaperWindow))
	}
	fmt.Println()
	fmt.Print(tb.String())

	ac, err := experiments.AblateACRatio([]float64{0.2, 0.4, 0.6, 1.0})
	if err != nil {
		return err
	}
	tb = report.NewTable("SNN accumulate/MAC energy ratio → break-even input activity",
		"AC/MAC ratio", "Break-even activity")
	for _, r := range ac {
		tb.AddRow(f(r.ACOverMAC, 1), f(r.BreakEvenActivity, 2))
	}
	fmt.Println()
	fmt.Print(tb.String())
	return nil
}

func runExt() error {
	fmt.Println("Extension studies: Section 8's future considerations, quantified")
	fmt.Println("=================================================================")

	wptRows, err := experiments.ExtWPT(wpt.TypicalLink())
	if err != nil {
		return err
	}
	tb := report.NewTable("Wireless power transfer: budget after on-implant WPT losses",
		"SoC", "Budget [mW]", "Effective [mW]", "Still feasible", "Tx power [mW]")
	for _, r := range wptRows {
		tb.AddRow(strconv.Itoa(r.SoC), f(r.FullBudgetMW, 1), f(r.EffectiveBudgetMW, 1),
			fmt.Sprint(r.StillFeasible), f(r.TxPowerMW, 1))
	}
	fmt.Println()
	fmt.Print(tb.String())

	afeRows, err := experiments.ExtAFE([]float64{10, 5, 2})
	if err != nil {
		return err
	}
	tb = report.NewTable("Analog front end: density wall vs noise target (NEF model)",
		"Noise [µVrms]", "Per-channel [µW]", "Min safe pitch [µm]", "Meets 20 µm goal")
	for _, r := range afeRows {
		tb.AddRow(f(r.NoiseUVrms, 0), f(r.PerChannelUW, 2), f(r.MinSafePitchUM, 0),
			fmt.Sprint(r.Meets20UMGoal))
	}
	fmt.Println()
	fmt.Print(tb.String())

	stimRows, err := experiments.ExtStim([]int{16, 64, 256}, 100)
	if err != nil {
		return err
	}
	tb = report.NewTable("Closed-loop stimulation at 100 Hz (typical pulse, 20 mm² implant)",
		"Electrodes", "Power [µW]", "Shannon safe", "Budget share [%]")
	for _, r := range stimRows {
		tb.AddRow(strconv.Itoa(r.Electrodes), f(r.PowerUW, 0),
			fmt.Sprint(r.ShannonSafe), f(r.BudgetSharePct, 1))
	}
	fmt.Println()
	fmt.Print(tb.String())
	return nil
}

func runValidate() error {
	// Cross-checks that tie the analytical framework to the substrates.
	fmt.Println("MINDFUL self-checks")
	fmt.Println("===================")
	m := thermal.DefaultModel()
	p, err := m.SteadyState(thermal.SafeDensity)
	if err != nil {
		return err
	}
	fmt.Printf("Pennes bio-heat: tissue rise at 40 mW/cm² = %.2f °C (paper limit: 1–2 °C)\n", p.SurfaceRise())
	maxFlux, err := m.MaxSafeFlux(thermal.MaxTempRise)
	if err != nil {
		return err
	}
	fmt.Printf("Pennes bio-heat: flux for a 2 °C rise = %.1f mW/cm² (paper constant: 40)\n", maxFlux.MWPerCM2())
	budget := thermal.Budget(units.SquareMillimetres(144))
	fmt.Printf("Power budget for a 144 mm² implant = %.1f mW\n", budget.Milliwatts())
	// The uniform-dissipation argument, checked in 2-D.
	m2 := thermal.DefaultModel2D()
	nodes := m2.FootprintWidthNodes()
	uniform, err := m2.SteadyState(thermal.UniformFlux(thermal.SafeDensity, nodes))
	if err != nil {
		return err
	}
	hot, err := m2.SteadyState(thermal.HotspotFlux(thermal.SafeDensity, nodes, 0.1))
	if err != nil {
		return err
	}
	bare := m2
	bare.SpreaderConductivity = 0
	hotBare, err := bare.SteadyState(thermal.HotspotFlux(thermal.SafeDensity, nodes, 0.1))
	if err != nil {
		return err
	}
	fmt.Printf("2-D tissue peak at 40 mW/cm²: uniform %.2f °C; 10%%-stripe hotspot %.2f °C bare, %.2f °C behind 25 µm silicon\n",
		uniform.SurfacePeak(), hotBare.SurfacePeak(), hot.SurfacePeak())
	fmt.Println("All Table 1 designs scaled to 1024 channels sit within the budget:")
	for _, r := range experiments.Fig4()[:11] {
		fmt.Printf("  SoC %-2d %-18s %7.2f mW / %7.2f mW budget (%.1f mW/cm²)\n",
			r.SoC, r.Name, r.PowerMW, r.BudgetMW, r.DensityMW)
	}
	return nil
}
