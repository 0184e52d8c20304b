package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"mindful/internal/soc"
	"mindful/internal/thermal"
)

// runSoC queries the Table 1 design database: list the designs, inspect
// one, or scale it to an arbitrary channel count under the Section 4
// rules (CHANNELS is positional and defaults to 4096):
//
//	mindful soc list
//	mindful soc show NUM
//	mindful soc scale NUM [CHANNELS]
//
// A malformed command line exits 2; a design number or channel count
// that does not parse or name a design exits 1.
func runSoC() error {
	args := flag.Args()[1:]
	if len(args) == 0 {
		return socUsage()
	}
	switch args[0] {
	case "list":
		socList()
		return nil
	case "show", "scale":
		if len(args) < 2 {
			return socUsage()
		}
		d, err := socDesign(args[1])
		if err != nil {
			return err
		}
		if args[0] == "show" {
			socShow(d)
			return nil
		}
		n := 4096
		if len(args) > 2 {
			v, err := strconv.Atoi(args[2])
			if err != nil || v < 1 {
				return fmt.Errorf("soc scale: bad channel count %q", args[2])
			}
			n = v
		}
		socScale(d, n)
		return nil
	default:
		return socUsage()
	}
}

func socUsage() error {
	fmt.Fprintln(os.Stderr, "usage: mindful soc <list | show NUM | scale NUM [CHANNELS]>")
	return errUsage
}

func socDesign(arg string) (soc.Design, error) {
	num, err := strconv.Atoi(arg)
	if err != nil {
		return soc.Design{}, fmt.Errorf("soc: bad design number %q", arg)
	}
	d, ok := soc.ByNum(num)
	if !ok {
		return soc.Design{}, fmt.Errorf("soc: no SoC %d in Table 1 (valid: 1–11)", num)
	}
	return d, nil
}

func socList() {
	fmt.Printf("%-3s %-18s %-11s %6s %10s %12s %8s %s\n",
		"#", "Name", "NI", "Ch", "Area", "Density", "f", "Wireless")
	for _, d := range soc.Table1() {
		fmt.Printf("%-3d %-18s %-11s %6d %10s %12s %8s %v\n",
			d.Num, d.Name, d.NI, d.Channels, d.Area, d.Density, d.SampleRate, d.Wireless)
	}
}

func socShow(d soc.Design) {
	fmt.Println(d)
	fmt.Printf("  NI type:        %s\n", d.NI)
	fmt.Printf("  reported:       %v over %v at %v, f = %v\n", d.Power(), d.Area, d.Density, d.SampleRate)
	fmt.Printf("  wireless:       %v\n", d.Wireless)
	b := d.Baseline()
	fmt.Printf("  at 1024 ch:     %v over %v (%v)\n", b.At1024.Power, b.At1024.Area, b.At1024.Density())
	fmt.Printf("  sensing split:  %v / %v\n", b.SensingPower, b.SensingArea)
	fmt.Printf("  radio energy:   %v per bit (implied)\n", b.EnergyPerBit())
	fmt.Printf("  safety:         %v\n", thermal.Evaluate(b.At1024.Power, b.At1024.Area))
}

func socScale(d soc.Design, n int) {
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
