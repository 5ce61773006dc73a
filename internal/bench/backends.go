package bench

import (
	"sort"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/exec/plan"
	"c2nn/internal/simengine"
)

// precisions is every execution substrate, in reporting order.
var precisions = []simengine.Precision{simengine.Float32, simengine.Int32, simengine.BitPacked}

// runBackends times the same model and stimulus stream on all three
// execution substrates. packed_speedup is bitpacked over float32 — the
// machine-portable ratio the regression gate tracks — and rows.<kind>
// tallies plan rows per specialized kernel kind, the census explaining
// where the packed throughput comes from.
func runBackends(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		bsp := e.Trace.Begin("bench " + c.Name)
		defer bsp.End()
		res, err := Compile(c, compile.Options{L: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		stim := NewStimulusSet(res.Model, 64, e.Batch, e.Seed)
		pt := out.at(c.Name, l)
		pt.count("gates", int64(res.Netlist.GateCount()))
		gcs := map[simengine.Precision]float64{}
		for _, p := range precisions {
			if gcs[p], err = NNThroughput(res, stim, e.Batch, 0, p, e.MinMeasure, e.Trace); err != nil {
				return err
			}
			pt.on(p.String()).put("gcs", gcs[p], "g*c/s")
		}
		if gcs[simengine.Float32] > 0 {
			pt.put("packed_speedup", gcs[simengine.BitPacked]/gcs[simengine.Float32], "ratio")
		}
		if p, err := plan.Compile(res.Model); err == nil {
			mix := p.KernelMix()
			kinds := make([]string, 0, len(mix))
			for k := range mix {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				pt.count("rows."+k, int64(mix[k]))
			}
		}
		e.logf("[%s] L=%-2d float32=%.3g int32=%.3g bitpacked=%.3g", c.Name, l,
			gcs[simengine.Float32], gcs[simengine.Int32], gcs[simengine.BitPacked])
		return nil
	})
}
