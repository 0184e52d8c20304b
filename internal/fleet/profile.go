package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"mindful/internal/obs"
)

// StageProfile is the flight recorder's answer to "where does the tick
// go": a fleet run's per-stage ns/frame breakdown, which makes
// throughput regressions attributable to a stage. Printed, and with
// -out written as JSON, by `mindful profile`.
type StageProfile struct {
	Implants  int    `json:"implants"`
	Workers   int    `json:"workers"`
	Ticks     int    `json:"ticks"`
	Digest    string `json:"digest"`
	ElapsedNs int64  `json:"elapsed_ns"`
	// Stages is sorted by stage name; Count is Steps (implants×ticks for
	// a full run), MeanNs the attributed ns/frame.
	Stages []obs.StageStats `json:"stages"`
}

// RunProfile runs the fleet with stage timing enabled and returns the
// per-stage breakdown alongside the aggregate. The timing decorator is
// digest-neutral, so the aggregate is byte-identical to an untimed
// Run of the same config.
func RunProfile(cfg Config) (*StageProfile, *Aggregate, error) {
	timer := obs.NewStageTimer()
	cfg.StageTiming = timer
	agg, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	prof := &StageProfile{
		Implants:  agg.Implants,
		Workers:   agg.Workers,
		Ticks:     agg.Ticks,
		Digest:    fmt.Sprintf("%016x", agg.Digest),
		ElapsedNs: agg.Elapsed.Nanoseconds(),
		Stages:    timer.Stats(),
	}
	return prof, agg, nil
}

// WriteJSON writes the profile as indented JSON.
func (p *StageProfile) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
