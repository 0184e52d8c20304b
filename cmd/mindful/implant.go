package main

import (
	"flag"
	"fmt"

	"mindful/internal/implant"
	"mindful/internal/nn"
	"mindful/internal/units"
)

// runImplant runs the virtual implant end to end: synthetic cortex →
// ADC → packetizer or on-implant network → constant-Eb radio, with power
// and safety accounting (the runnable Fig. 3):
//
//	mindful implant [-channels N] [-flow comm|compute|feature|spike]
//	                [-seconds S] [-labels L] [-area MM2]
//
// -seconds is simulated time. The implant reports into the process-wide
// observer, so the global -metrics/-trace/-debug-addr flags capture it.
func runImplant() error {
	fs := flag.NewFlagSet("implant", flag.ContinueOnError)
	channels := fs.Int("channels", 128, "neural interface channel count")
	flowName := fs.String("flow", "comm", "dataflow: comm (stream raw), compute (on-implant DNN), feature (band power), or spike (event streaming)")
	seconds := fs.Float64("seconds", 1, "simulated duration")
	labels := fs.Int("labels", 40, "DNN output labels (compute flow)")
	areaMM2 := fs.Float64("area", 18, "implant contact area in mm²")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	cfg := implant.DefaultConfig()
	cfg.Neural.Channels = *channels
	cfg.Area = units.SquareMillimetres(*areaMM2)
	// Sensing power scales with channels at the BISC-like ≈19 µW/channel.
	cfg.SensingPower = units.Microwatts(19 * float64(*channels))

	switch *flowName {
	case "comm":
		cfg.Flow = implant.CommCentric
	case "compute":
		cfg.Flow = implant.ComputeCentric
		net, err := nn.RandomMLP(7, *channels, 4**labels, *labels)
		if err != nil {
			return err
		}
		cfg.Network = net
	case "feature":
		cfg.Flow = implant.FeatureCentric
	case "spike":
		cfg.Flow = implant.SpikeCentric
	default:
		return fmt.Errorf("unknown flow %q (want comm, compute, feature, or spike)", *flowName)
	}

	im, err := implant.New(cfg)
	if err != nil {
		return err
	}
	im.SetObserver(observer)
	ticks := int(*seconds * cfg.Neural.SampleRate.Hz())
	fmt.Printf("Simulating a %d-channel %v implant for %.2g s (%d ticks at %v)…\n",
		*channels, cfg.Flow, *seconds, ticks, cfg.Neural.SampleRate)

	// Sweep the latent intent so the cortex is doing something.
	for i := 0; i < ticks; i++ {
		if i%128 == 0 {
			phase := float64(i) / float64(ticks)
			im.SetIntent(2*phase-1, 1-2*phase)
		}
		if err := im.Tick(); err != nil {
			return err
		}
	}

	st := im.Stats()
	fmt.Printf("\nFrames sent:        %d", st.Frames)
	if st.Inferences > 0 {
		fmt.Printf(" (%d DNN inferences)", st.Inferences)
	}
	fmt.Println()
	fmt.Printf("Raw sensing volume: %d bits\n", st.RawBits())
	fmt.Printf("Transmitted:        %d bits (reduction %.2f×)\n", st.BitsSent, st.CompressionRatio())
	fmt.Printf("Uplink rate:        %v (raw sensing rate %v)\n", st.TxRate, st.SensingRate)
	fmt.Printf("Power:              sensing %v + compute %v + radio %v = %v\n",
		st.SensingPower, st.ComputePower, st.RadioPower, st.Total())
	fmt.Printf("Safety:             %v\n", st.Safety)
	if out := im.LastOutput(); out != nil {
		fmt.Printf("Last DNN output:    %d values\n", len(out))
	}
	if st.FeatureVectors > 0 {
		fmt.Printf("Feature vectors:    %d\n", st.FeatureVectors)
	}
	if st.SpikeEvents > 0 {
		fmt.Printf("Spike events:       %d\n", st.SpikeEvents)
	}
	return nil
}
