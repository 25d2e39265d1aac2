package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/sim"
)

// regenerate recomputes the reference data for every variant: the report
// digests of both sim matrices, the exact IPC of every sampled run, and
// each cold sweep's digests and distinct-configuration count. Run it only
// when a change to the program is meant to change simulation output.
func regenerate(path string) error {
	r := reference{Digests: map[string]string{}, ExactIPC: map[string]float64{}, Distinct: map[string]int{}}
	m := config.Default()
	for v := 0; v < variants; v++ {
		for _, nr := range exactMatrix(v) {
			rep, err := sim.Simulate(m, nr.run)
			if err != nil {
				return fmt.Errorf("%s: %w", nr.label, err)
			}
			r.Digests[fmt.Sprintf("sim-exact/%d/%s", v, nr.label)] = digest(rep)
		}
		for _, nr := range sampledMatrix(v) {
			rep, err := sim.Simulate(m, nr.run)
			if err != nil {
				return fmt.Errorf("%s: %w", nr.label, err)
			}
			r.Digests[fmt.Sprintf("sim-sampled/%d/%s", v, nr.label)] = digest(rep)
			ipcExact, err := exactIPC(nr.run)
			if err != nil {
				return fmt.Errorf("%s: %w", nr.label, err)
			}
			r.ExactIPC[fmt.Sprintf("%d/%s", v, nr.label)] = ipcExact
		}
		res, err := newSweepWorkload(v, newRecorder()).sweep(sweepBudget)
		if err != nil {
			return err
		}
		for k, d := range sweepDigests(v, res) {
			r.Digests[k] = d
		}
		r.Distinct[fmt.Sprint(v)] = int(res.snap.Completed)
		fmt.Fprintf(os.Stderr, "perf: variant %d done\n", v)
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// exactIPC simulates a sampled run's configuration without sampling.
func exactIPC(run config.Run) (float64, error) {
	run.Sample = config.SampleConfig{}
	rep, err := sim.Simulate(config.Default(), run)
	if err != nil {
		return 0, err
	}
	return ipc(rep), nil
}
