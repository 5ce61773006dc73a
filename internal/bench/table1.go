package bench

import (
	"fmt"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/simengine"
)

// gateSim is the backend label of rows measured on the gate-level
// reference simulators rather than an NN substrate.
const gateSim = "gatesim"

// runTable1 regenerates Table I: per circuit the Verilog size and the
// scalar gate-level baseline (the Verilator stand-in), and per L the NN
// generation time, model shape, and float32 / bit-packed throughput of
// the paper's merged network (Fig. 5).
func runTable1(e *Env, out *emitter) error {
	var (
		stim     *StimulusSet
		baseline float64
		prev     string
	)
	return e.each(func(c circuits.Circuit, l int) error {
		res, err := Compile(c, compile.Options{L: l, Merge: true, Trace: e.Trace})
		if err != nil {
			return err
		}
		if c.Name != prev { // the baseline is independent of L: once per circuit
			prev = c.Name
			stim = NewStimulusSet(res.Model, 64, e.Batch, e.Seed)
			baseline = BaselineThroughput(res.Program, stim, e.MinMeasure)
			e.logf("[%s] baseline %.3g gates·cycles/s (%d gates)", c.Name, baseline, res.Netlist.GateCount())
		}
		stats := res.Model.Net.ComputeStats()
		pt := out.at(c.Name, l)
		pt.count("loc", int64(c.LinesOfCode()))
		pt.count("gates", int64(res.Netlist.GateCount()))
		pt.on(gateSim).put("gcs", baseline, "g*c/s")
		pt.put("gen_s", res.GenTime.Seconds(), "s")
		pt.put("memory_mb", float64(res.Model.MemoryBytes())/1e6, "MB")
		pt.count("connections", int64(stats.Connections))
		pt.count("layers", int64(stats.Layers))
		pt.put("sparsity", stats.MeanSparsity, "ratio")
		if e.VerifyCycles > 0 {
			if _, err := simengine.Verify(res.Model, res.Program, e.VerifyCycles, simengine.Options{Batch: 4}, e.Seed); err != nil {
				return fmt.Errorf("equivalence check failed: %w", err)
			}
		}
		pt.flag("verified", e.VerifyCycles > 0)
		var f32 float64
		for _, p := range []simengine.Precision{simengine.Float32, simengine.BitPacked} {
			gcs, err := NNThroughput(res, stim, e.Batch, 0, p, e.MinMeasure, e.Trace)
			if err != nil {
				return err
			}
			pt.on(p.String()).put("gcs", gcs, "g*c/s")
			if p == simengine.Float32 {
				f32 = gcs
			}
		}
		if baseline > 0 {
			pt.put("speedup", f32/baseline, "ratio")
		}
		e.logf("[%s] L=%-2d gen=%-8s layers=%-3d conn=%d sparsity=%.5f NN=%.3g speedup=%.1fx",
			c.Name, l, res.GenTime.Round(time.Millisecond), stats.Layers, stats.Connections,
			stats.MeanSparsity, f32, f32/baseline)
		return nil
	})
}
