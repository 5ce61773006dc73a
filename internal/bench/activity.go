package bench

import (
	"fmt"
	"slices"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// denseCycles is the length of the dense-random workload: every input
// redrawn every cycle — the worst case for skipping, which bounds the
// root-diff overhead.
const denseCycles = 64

// runActivity measures activity-driven execution on the bit-packed
// backend: for each circuit × L it replays the shipped smoke testbench
// (when one exists) and a dense-random workload — the row's variant —
// with skipping off and on, reporting the skip rate the workload
// achieved (skipped over dirty+skipped clusters), wall clock per step of
// each mode, their ratio (speedup > 1 means skipping won), and whether
// the two modes were bit-identical on every sampled output bit. They
// must be — the differential battery enforces it; `equal` re-checks it
// in the benchmark loop so a regression shows in CI artifacts too.
func runActivity(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		res, err := Compile(c, compile.Options{L: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		tb, script, err := smokeTestbench(c)
		if err != nil {
			return err
		}
		pt := out.at(c.Name, l).on(simengine.BitPacked.String())
		if script != nil {
			if err := measureActivity(e, pt.as(tb), res, script); err != nil {
				return fmt.Errorf("%s: %w", tb, err)
			}
		}
		return measureActivity(e, pt.as("dense_random"), res, nil)
	})
}

// measureActivity runs one workload (script, or dense-random when nil)
// three times: an equality pass recording every sampled output bit of
// both modes, then one timed pass per mode.
func measureActivity(e *Env, out *emitter, res *CompileResult, script *testbench.Script) error {
	var engines [2]*simengine.Engine // skipping off, on
	for i := range engines {
		var err error
		engines[i], err = simengine.New(res.Model, simengine.Options{
			Batch: e.Batch, Precision: simengine.BitPacked, Activity: i == 1,
		})
		if err != nil {
			return err
		}
		defer engines[i].Close()
	}
	stim := NewStimulusSet(res.Model, denseCycles, e.Batch, e.Seed)

	// Equality pass: identical stimuli into both engines, every output
	// port of every lane recorded at every sample, recordings diffed.
	var recs [2][]uint64
	for i, eng := range engines {
		record := func() error {
			for _, port := range res.Model.Outputs {
				out, err := eng.GetOutput(port.Name)
				if err != nil {
					return err
				}
				recs[i] = append(recs[i], out...)
			}
			return nil
		}
		if script != nil {
			if _, err := script.RunOpts(eng, testbench.RunOptions{Trace: func(int) error { return record() }}); err != nil {
				return err
			}
			continue
		}
		for c := 0; c < denseCycles; c++ {
			if err := stim.Load(eng, stim.Values[c]); err != nil {
				return err
			}
			eng.Forward()
			if err := record(); err != nil {
				return err
			}
			eng.LatchFeedback()
		}
	}
	out.flag("equal", slices.Equal(recs[0], recs[1]))

	// Timed passes: one replay (from reset) or one dense stream per call.
	var nsPerStep [2]float64
	var steps int
	var dirty, skipped int64
	for i, eng := range engines {
		steps = 0
		step := stim.drive(eng)
		d0, s0 := eng.ActivityCounters()
		t, err := measure(e.MinMeasure, func() error {
			if script != nil {
				eng.Reset()
				r, err := script.Run(eng)
				steps += r.Steps
				return err
			}
			for c := 0; c < denseCycles; c++ {
				if err := step(); err != nil {
					return err
				}
			}
			steps += denseCycles
			return nil
		})
		if err != nil {
			return err
		}
		if steps == 0 {
			return fmt.Errorf("workload drove no steps")
		}
		nsPerStep[i] = float64(t.total.Nanoseconds()) / float64(steps)
		d1, s1 := eng.ActivityCounters()
		dirty, skipped = d1-d0, s1-s0
	}
	out.count("steps", int64(steps))
	out.count("clusters", int64(len(engines[1].Plan().Clusters.Clusters)))
	out.count("dirty_clusters", dirty)
	out.count("skipped_clusters", skipped)
	rate := 0.0
	if dirty+skipped > 0 {
		rate = float64(skipped) / float64(dirty+skipped)
	}
	out.put("skip_rate", rate, "ratio")
	out.put("baseline_ns_per_step", nsPerStep[0], "ns")
	out.put("activity_ns_per_step", nsPerStep[1], "ns")
	out.put("speedup", nsPerStep[0]/nsPerStep[1], "ratio")
	e.logf("[%s] L=%d %-16s skip=%5.1f%%  base=%8.0f ns/step  act=%8.0f ns/step  %.2fx",
		res.Circuit.Name, res.L, out.row.Variant, 100*rate, nsPerStep[0], nsPerStep[1], nsPerStep[0]/nsPerStep[1])
	return nil
}
