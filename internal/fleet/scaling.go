package fleet

import (
	"fmt"
	"time"
)

// ScalingPoint is one worker count's performance on a fixed fleet.
type ScalingPoint struct {
	Workers         int           `json:"workers"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	FramesPerSecond float64       `json:"frames_per_second"`
	// Speedup is relative to the first measured point.
	Speedup float64 `json:"speedup"`
	// Digest witnesses that every point computed identical output
	// (serialized as a string: 64-bit values overflow JSON numbers).
	Digest uint64 `json:"digest,string"`
}

// MeasureScaling runs the same fleet at each worker count and reports the
// throughput curve. It fails if any point's digest diverges — a scaling
// measurement that changes the answer measures nothing.
func MeasureScaling(cfg Config, workerCounts []int) ([]ScalingPoint, error) {
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("fleet: no worker counts to measure")
	}
	points := make([]ScalingPoint, 0, len(workerCounts))
	var base float64
	var digest uint64
	for i, w := range workerCounts {
		c := cfg
		c.Workers = w
		agg, err := Run(c)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = agg.FramesPerSecond
			digest = agg.Digest
		} else if agg.Digest != digest {
			return nil, fmt.Errorf("fleet: digest diverged at %d workers: %#x vs %#x", w, agg.Digest, digest)
		}
		p := ScalingPoint{
			Workers:         w,
			Elapsed:         agg.Elapsed,
			FramesPerSecond: agg.FramesPerSecond,
			Digest:          agg.Digest,
		}
		if base > 0 {
			p.Speedup = agg.FramesPerSecond / base
		}
		points = append(points, p)
	}
	return points, nil
}
