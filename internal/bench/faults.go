package bench

import (
	"fmt"
	"slices"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/fault"
	"c2nn/internal/simengine"
)

// faultCycles is the length of the random stimulus stream each fault
// class is graded against — short, sized for CI.
const faultCycles = 32

// runFaults grades the collapsed stuck-at universe of each circuit on
// every execution substrate with the same random stimuli, reporting
// grading throughput (simulated fault classes per second). Detection
// results are asserted identical across backends.
func runFaults(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		res, err := Compile(c, compile.Options{L: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		u := fault.Enumerate(res.Mapping.Graph, len(res.Model.Feedback))
		pt := out.at(c.Name, l)
		pt.count("gates", int64(res.Netlist.GateCount()))
		pt.count("raw_faults", int64(u.Raw))
		fps := map[simengine.Precision]float64{}
		var detected []string
		for _, p := range precisions {
			rep, err := fault.Grade(res.Model, res.Mapping.Graph, u, nil, fault.Config{
				Precision: p, Batch: e.Batch, RandomCycles: faultCycles, Seed: e.Seed, Trace: e.Trace,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			if detected == nil {
				detected = rep.DetectedFaults
				pt.count("simulated", int64(rep.Simulated))
				pt.put("coverage", rep.Coverage, "%")
			} else if !slices.Equal(detected, rep.DetectedFaults) {
				return fmt.Errorf("%s detects a different fault set than float32", p)
			}
			fps[p] = rep.FaultsPerSec
			pt.on(p.String()).put("fps", rep.FaultsPerSec, "faults/s")
		}
		if fps[simengine.Float32] > 0 {
			pt.put("packed_speedup", fps[simengine.BitPacked]/fps[simengine.Float32], "ratio")
		}
		e.logf("[%s] L=%-2d %d faults: f32=%.3g i32=%.3g bp=%.3g faults/s", c.Name, l, u.Raw,
			fps[simengine.Float32], fps[simengine.Int32], fps[simengine.BitPacked])
		return nil
	})
}
