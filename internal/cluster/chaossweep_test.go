package cluster

import "testing"

// TestChaosSweepAuditsDigests runs a small sweep through the driver
// behind `mindful cluster`: at each intensity the live migration and the
// shard kill land, and every surviving session's digest is audited
// against an uninterrupted run.
func TestChaosSweepAuditsDigests(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Shards = 2
	cfg.Sessions = 3
	cfg.Ticks = 60
	cfg.Migrations = 1
	cfg.Session = testSessionConfig()
	sweep, err := RunChaosSweep(cfg, []float64{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("%d sweep points, want 2", len(sweep.Points))
	}
	for _, pt := range sweep.Points {
		survivors := int(pt.SurvivalRate*float64(cfg.Sessions) + 0.5)
		if pt.DigestsVerified != survivors || survivors == 0 {
			t.Errorf("intensity %g: %d digests verified, %d sessions survived",
				pt.Intensity, pt.DigestsVerified, survivors)
		}
		if pt.Records == 0 || pt.Killed == "" {
			t.Errorf("intensity %g: %d records, killed %q; want records and a kill",
				pt.Intensity, pt.Records, pt.Killed)
		}
	}
	if base := sweep.Points[0]; base.SurvivalRate != 1 || base.ChaosStats.Requests != 0 {
		t.Errorf("intensity 0: survival %g, %d chaos requests; want 1 and a fault-free path",
			base.SurvivalRate, base.ChaosStats.Requests)
	}
}
