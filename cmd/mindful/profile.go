package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mindful/internal/fleet"
)

// runProfile runs one fleet configuration with the stage flight recorder
// attached and prints the per-stage ns/frame breakdown; -out also
// writes it as JSON:
//
//	mindful profile [-n N] [-workers K] [-ticks T] [-channels C]
//	                [-qam B] [-ebn0 DB] [-seed S] [-faults I] [-arq N]
//	                [-fec D] [-conceal MODE] [-decoder NAME] [-decode-bin T]
//	                [-out FILE]
//
// The timing decorator is digest-neutral, so the reported digest matches
// an untimed `mindful fleet` run of the same configuration.
func runProfile() error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	build := fleetFlags(fs)
	out := fs.String("out", "", "write the stage profile as JSON to FILE (empty = table only)")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	cfg, err := build()
	if err != nil {
		return err
	}

	prof, agg, err := fleet.RunProfile(cfg)
	if err != nil {
		return err
	}

	title := fmt.Sprintf("Stage profile: %d implants × %d ticks over %d workers", prof.Implants, prof.Ticks, prof.Workers)
	tb := stageTable(title, prof.Stages)
	fmt.Print(tb.String())
	fmt.Printf("\ndigest %s  %.0f frames/s over %s\n",
		prof.Digest, agg.FramesPerSecond, agg.Elapsed.Round(time.Microsecond))

	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := prof.WriteJSON(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *csvDir != "" {
		return writeFile(*csvDir, "profile.csv", tb.CSV())
	}
	return nil
}
