// Command socdb queries the Table 1 design database: list the designs,
// inspect one, or scale it to an arbitrary channel count under the
// Section 4 rules (CHANNELS is positional and defaults to 4096).
//
// Usage:
//
//	socdb list
//	socdb show <num>
//	socdb scale <num> [CHANNELS]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"mindful"
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "list":
		list()
	case "show":
		d := mustDesign(args)
		show(d)
	case "scale":
		d := mustDesign(args)
		n := 4096
		if len(args) > 2 {
			v, err := strconv.Atoi(args[2])
			if err != nil || v < 1 {
				fail("scale: bad channel count %q", args[2])
			}
			n = v
		}
		scale(d, n)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: socdb <list | show NUM | scale NUM [CHANNELS]>")
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "socdb: "+format+"\n", args...)
	os.Exit(1)
}

func mustDesign(args []string) mindful.Design {
	if len(args) < 2 {
		usage()
	}
	num, err := strconv.Atoi(args[1])
	if err != nil {
		fail("bad design number %q", args[1])
	}
	d, ok := mindful.DesignByNum(num)
	if !ok {
		fail("no SoC %d in Table 1 (valid: 1–11)", num)
	}
	return d
}

func list() {
	fmt.Printf("%-3s %-18s %-11s %6s %10s %12s %8s %s\n",
		"#", "Name", "NI", "Ch", "Area", "Density", "f", "Wireless")
	for _, d := range mindful.Table1() {
		fmt.Printf("%-3d %-18s %-11s %6d %10s %12s %8s %v\n",
			d.Num, d.Name, d.NI, d.Channels, d.Area, d.Density, d.SampleRate, d.Wireless)
	}
}

func show(d mindful.Design) {
	fmt.Println(d)
	fmt.Printf("  NI type:        %s\n", d.NI)
	fmt.Printf("  reported:       %v over %v at %v, f = %v\n", d.Power(), d.Area, d.Density, d.SampleRate)
	fmt.Printf("  wireless:       %v\n", d.Wireless)
	b := d.Baseline()
	fmt.Printf("  at 1024 ch:     %v over %v (%v)\n", b.At1024.Power, b.At1024.Area, b.At1024.Density())
	fmt.Printf("  sensing split:  %v / %v\n", b.SensingPower, b.SensingArea)
	fmt.Printf("  radio energy:   %v per bit (implied)\n", b.EnergyPerBit())
	fmt.Printf("  safety:         %v\n", mindful.CheckSafety(b.At1024.Power, b.At1024.Area))
}

func scale(d mindful.Design, n int) {
	b := d.Baseline()
	fmt.Printf("%s projected to %d channels\n", d, n)
	naive := b.Naive(n)
	hm := b.HighMargin(n)
	fmt.Printf("  naive:       %v over %v → %.0f%% of budget\n",
		naive.Power, naive.Area, 100*naive.Power.Watts()/naive.Budget().Watts())
	fmt.Printf("  high-margin: %v over %v → %.0f%% of budget\n",
		hm.Power, hm.Area, 100*hm.Power.Watts()/hm.Budget().Watts())
	fmt.Printf("  sensing fraction: naive %.2f, high-margin %.2f\n",
		b.SensingFractionNaive(n), b.SensingFractionHighMargin(n))
	fmt.Printf("  raw data rate: %v\n", b.SensingThroughputAt(n))
}
