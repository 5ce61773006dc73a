package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/exec/analyze"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// testbenchDir is scanned for the shipped <circuit>_smoke.tb scripts the
// analyze and activity suites replay.
const testbenchDir = "testbenches"

// smokeTestbench loads and parses the circuit's shipped smoke testbench;
// a circuit that ships none (no file) yields a nil script.
func smokeTestbench(c circuits.Circuit) (string, *testbench.Script, error) {
	name := strings.ToLower(c.Name) + "_smoke.tb"
	src, err := os.ReadFile(filepath.Join(testbenchDir, name))
	if err != nil {
		return name, nil, nil
	}
	script, err := testbench.Parse(string(src))
	if err != nil {
		return name, nil, fmt.Errorf("%s: %w", name, err)
	}
	return name, script, nil
}

// runAnalyze statically analyses each circuit × L — cone clustering,
// cost model, arena aliasing proof (alias_clean: no Error-severity
// diagnostic) — then measures the bit-packed backend per layer and
// reports the Pearson correlation between the static per-layer packed
// word ops and the measured per-layer kernel time, and — where a smoke
// testbench exists — samples root activity through the cluster graph
// (activity.* rows).
func runAnalyze(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		asp := e.Trace.Begin(fmt.Sprintf("analyze %s L=%d", c.Name, l))
		defer asp.End()
		res, err := Compile(c, compile.Options{L: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		// The measurement engine carries its own trace so the per-layer
		// kernel spans are not diluted by unrelated spans on e.Trace.
		mtr := obs.New()
		eng, err := simengine.New(res.Model, simengine.Options{
			Batch: e.Batch, Precision: simengine.BitPacked, Trace: mtr,
		})
		if err != nil {
			return err
		}
		defer eng.Close()
		ar, err := analyze.Run(eng.Plan(), analyze.Options{Trace: e.Trace})
		if err != nil {
			return err
		}
		clean := true
		for _, d := range ar.Diags {
			if d.Severity == diag.Error {
				clean = false
			}
		}
		meta, mix := ar.Plan.Clusters, ar.Plan.KernelMix()
		pt := out.at(c.Name, l)
		pt.count("gates", int64(res.Netlist.GateCount()))
		pt.count("layers", int64(len(eng.Plan().Layers)))
		pt.count("rows", int64(ar.Cost.Total.Rows))
		pt.count("components", int64(meta.NumComponents))
		pt.count("clusters", int64(len(meta.Clusters)))
		pt.count("const_rows", int64(mix["const0"]+mix["const1"]))
		pt.flag("alias_clean", clean)
		pt.count("float_macs", ar.Cost.Total.FloatMACs)
		pt.count("packed_word_ops", ar.Cost.Total.PackedWordOps)
		pt.count("packed_bytes", ar.Cost.Total.PackedBytes)
		pt.put("intensity", ar.Cost.Total.Intensity, "ops/byte")
		pt.count("critical_path", int64(ar.Cost.Total.CriticalPath))

		// Drive the bit-packed backend with random stimuli for long enough
		// to accumulate a per-layer time profile, then correlate it with
		// the static per-layer packed-word-op cost.
		stim := NewStimulusSet(res.Model, 64, e.Batch, e.Seed)
		if _, err := measure(e.MinMeasure, stim.drive(eng)); err != nil {
			return err
		}
		var static, sampled []float64
		for li, d := range layerTimes(mtr, len(eng.Plan().Layers)) {
			if d > 0 {
				static = append(static, float64(ar.Cost.Layers[li].PackedWordOps))
				sampled = append(sampled, d.Seconds())
			}
		}
		r := pearson(static, sampled)
		pt.count("measured_layers", int64(len(sampled)))
		pt.put("cost_correlation", r, "r")

		tb, script, err := smokeTestbench(c)
		if err != nil {
			return err
		}
		if script != nil {
			st, err := probeTestbench(res, script)
			if err != nil {
				return fmt.Errorf("activity probe %s: %w", tb, err)
			}
			pt.count("activity.steps", int64(st.Steps))
			pt.count("activity.clusters", int64(st.Clusters))
			pt.put("activity.avg_dirty_clusters", st.AvgDirtyClusters, "count")
			pt.put("activity.dirty_fraction", st.DirtyFraction, "ratio")
			pt.put("activity.dirty_cost_fraction", st.DirtyCostFraction, "ratio")
		}
		e.logf("[%s] L=%-2d %d clusters/%d comps, %d word-ops, alias clean=%v, r=%.3f",
			c.Name, l, len(meta.Clusters), meta.NumComponents, ar.Cost.Total.PackedWordOps, clean, r)
		return nil
	})
}

// probeTestbench replays a testbench script on a fresh engine with an
// activity probe sampling the sequential roots after every step.
func probeTestbench(res *CompileResult, script *testbench.Script) (analyze.ActivityStats, error) {
	eng, err := simengine.New(res.Model, simengine.Options{Batch: 2})
	if err != nil {
		return analyze.ActivityStats{}, err
	}
	defer eng.Close()
	if _, err := analyze.Run(eng.Plan(), analyze.Options{}); err != nil {
		return analyze.ActivityStats{}, err
	}
	pr, err := analyze.NewProbe(eng)
	if err != nil {
		return analyze.ActivityStats{}, err
	}
	_, err = script.RunOpts(eng, testbench.RunOptions{
		Trace: func(int) error { pr.Sample(); return nil },
	})
	return pr.Stats(), err
}

// layerTimes aggregates the engine's "layer NNN kernel" spans into a
// per-layer total duration vector.
func layerTimes(tr *obs.Trace, layers int) []time.Duration {
	out := make([]time.Duration, layers)
	for _, st := range tr.StatsByName() {
		var li int
		var kernel string
		if n, err := fmt.Sscanf(st.Name, "layer %d %s", &li, &kernel); n < 1 || err != nil {
			continue
		}
		if li >= 0 && li < layers {
			out[li] += st.Total
		}
	}
	return out
}
