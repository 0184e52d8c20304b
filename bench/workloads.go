package main

// pinSeed is the default base seed, the one pins are recorded for.
const pinSeed = 1

// pins are each workload's output digests at pinSeed and full size. A
// change that alters what the simulation computes fails here first; for
// any other seed the workloads check their output against references
// computed in-process.
var pins = map[string]string{
	"fleet-clean":     "digest=12420047854789456469 decode=0",
	"fleet-decode":    "digest=2824478920013058663 decode=16791315912848695689",
	"fleet-lossy":     "digest=4895632612661457549 decode=0",
	"serve-realtime":  "sessions=776841673462821190",
	"cluster-migrate": "sessions=12130684031934742471",
}

func pinFor(name string, seed int64, tiny bool) string {
	if seed != pinSeed || tiny {
		return ""
	}
	return pins[name]
}

// workloads are the benchmark's inputs. Each stresses a different layer,
// and each optimisation has one that exercises it and one that bypasses
// it: README.md says which.
var workloads = []*workload{
	{
		name:   "fleet-clean",
		why:    "batched source/transport/receiver slab kernels and the batch runner do all the work, no decode; 4x the old 64-implant working set",
		config: "256 implants x 4000 ticks, workers 1, batch 16",
		open: func(seed int64, tiny bool) (runner, error) {
			return openFleet(fleetCleanConfig(seed, tiny), pinFor("fleet-clean", seed, tiny))
		},
	},
	{
		name:   "fleet-decode",
		why:    "Kalman decode and adaptation take ~95% of host time; transport under 5%, the bypass case for transport changes",
		config: "64 implants x 2000 ticks, workers 1, batch 16, Kalman + calibrate + adapt, drift 1 (epoch 500)",
		open: func(seed int64, tiny bool) (runner, error) {
			return openFleet(fleetDecodeConfig(seed, tiny), pinFor("fleet-decode", seed, tiny))
		},
	},
	{
		name:   "fleet-lossy",
		why:    "default scalar runner; ARQ/FEC fall back to the scalar transport, the B<=1 check for one runner",
		config: "64 implants x 2000 ticks, workers 1, batch 0, faults 1, ARQ 2, FEC depth 4, hold concealment",
		open: func(seed int64, tiny bool) (runner, error) {
			return openFleet(fleetLossyConfig(seed, tiny), pinFor("fleet-lossy", seed, tiny))
		},
	},
	{
		name:   "serve-realtime",
		why:    "whether the session tick loop holds the 2 kHz clock; fleet stages here are scalar and paced",
		config: "one in-process gateway, 16 sessions x 4000 ticks at a 500 us tick interval, 1 subscriber per CPU beyond the first",
		open: func(seed int64, tiny bool) (runner, error) {
			return openServing(serveRealtimeParams(tiny), seed, pinFor("serve-realtime", seed, tiny))
		},
	},
	{
		name:   "cluster-migrate",
		why:    "front tier, checkpoint codec, redirect and resubscribe; session state is written while streams read",
		config: "3 shards, 24 sessions x 4000 ticks at 500 us; the subscribed session migrates round-robin 24 times, every 100 ms",
		open: func(seed int64, tiny bool) (runner, error) {
			return openServing(clusterMigrateParams(tiny), seed, pinFor("cluster-migrate", seed, tiny))
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
