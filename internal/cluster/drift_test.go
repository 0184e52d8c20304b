package cluster

import (
	"testing"
	"time"

	"mindful/internal/drift"
	"mindful/internal/serve"
	"mindful/internal/serve/checkpoint"
)

// adaptiveKeyConfig is the cluster variant of the everything-on
// nonstationarity session: drift, calibration, tracking and closed-loop
// recalibration, with a refit cadence (every 4 bins of 2 ticks) chosen
// so a mid-run migration almost surely lands with the supervision ring
// partially filled.
func adaptiveKeyConfig(dec string) checkpoint.SessionConfig {
	cfg := testSessionConfig()
	p := drift.DefaultProfile()
	p.EpochTicks = 8
	cfg.Drift = &p
	cfg.Decoder = dec
	cfg.DecodeBin = 2
	cfg.Calibrate = true
	cfg.Track = true
	cfg.Adapt = true
	cfg.RefitEvery = 4
	cfg.RefitBuffer = 8
	cfg.RefitBlend = 0.3
	cfg.MeterRef = 4
	cfg.MeterWin = 4
	return cfg
}

// TestMigrationMidRefitAdaptive: a recalibrating session live-migrated
// between shards mid-run — mid-refit-cycle, with the drift process and
// mutated decoder model in flight — must finish with frame AND decode
// digests identical to an uninterrupted run. The nonstationarity
// subsystem rides the same export/import path as everything else, so
// migration stays invisible to the adaptation loop bit for bit.
func TestMigrationMidRefitAdaptive(t *testing.T) {
	for _, dec := range []string{"kalman", "fixed", "wiener"} {
		dec := dec
		t.Run(dec, func(t *testing.T) {
			t.Parallel()
			// An adaptive step can outlast a 1 ms tick under -race, and a
			// session behind its schedule catches up at once, so 1 ms
			// pacing leaves the poller a window of a few ms to see the
			// session mid-run. 5 ms keeps 20 ticks ≥ 100 ms.
			c := startCluster(t, 2, serve.Config{TickInterval: 5 * time.Millisecond})
			cfg := adaptiveKeyConfig(dec)
			cfg.Ticks = 40
			wantFrame, wantDecode := digests(t, cfg)

			info, err := c.CreateSession(serve.CreateRequest{SessionConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			mid := waitKeyTick(t, c, info.Key, cfg.Ticks/2)
			if mid.State == serve.StateDone {
				t.Fatalf("session finished (tick %d) before the migration window", mid.Tick)
			}

			target := "shard-0"
			if mid.Shard == target {
				target = "shard-1"
			}
			if err := c.Migrate(info.Key, target); err != nil {
				t.Fatal(err)
			}

			done := waitKeyState(t, c, info.Key, serve.StateDone)
			if done.Digest != wantFrame {
				t.Fatalf("%s: migrated frame digest %s, want uninterrupted %s", dec, done.Digest, wantFrame)
			}
			if done.DecodeDigest != wantDecode {
				t.Fatalf("%s: migrated decode digest %s, want uninterrupted %s", dec, done.DecodeDigest, wantDecode)
			}
		})
	}
}
