package bench

import (
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/tensor"
)

// runAblations measures the design choices DESIGN.md calls out, each as
// rows of the two sides keyed by variant ("unmerged" is the shipped
// network, "merged" the paper's; every other variant changes one choice
// of the merged side):
//
//   - layer merging (Fig. 5): merged vs unmerged layers, connections
//     and throughput;
//   - float32 vs int32 vs bit-packed kernels (§V), as backends of both;
//   - sparse CSR vs dense matmul on the largest layer (§III-F): spmm vs dense;
//   - priority-cut vs FlowMap mapping: depth and LUT count, merged vs flowmap;
//   - wide-gate coalescing (§V): depth and connections, merged vs coalesced;
//   - baseline engines: scalar vs event vs batch64 gate-level simulators.
//
// One compile serves both sides of Fig. 5: nn.Merge turns the compiled
// network into the merged one (DESIGN.md "One driver").
func runAblations(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		unmerged, err := Compile(c, compile.Options{L: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		merged := *unmerged
		if merged.Model, err = nn.Merge(unmerged.Model); err != nil {
			return err
		}
		stim := NewStimulusSet(merged.Model, 64, e.Batch, e.Seed)
		pt := out.at(c.Name, l)
		for _, side := range []struct {
			variant string
			res     *CompileResult
		}{{"merged", &merged}, {"unmerged", unmerged}} {
			m := pt.as(side.variant)
			m.count("layers", int64(len(side.res.Model.Net.Layers)))
			m.count("connections", int64(side.res.Model.Net.ComputeStats().Connections))
			for _, p := range []simengine.Precision{simengine.Float32, simengine.Int32, simengine.BitPacked} {
				v, err := NNThroughput(side.res, stim, e.Batch, 0, p, e.MinMeasure, e.Trace)
				if err != nil {
					return err
				}
				m.on(p.String()).put("gcs", v, "g*c/s")
			}
		}
		m := pt.as("merged")
		m.count("depth", int64(merged.Mapping.Graph.Depth()))
		m.count("luts", int64(len(merged.Mapping.Graph.LUTs)))

		// Sparse vs dense matmul on the largest layer (§III-F).
		var big *tensor.CSR
		for i := range merged.Model.Net.Layers {
			if w := merged.Model.Net.Layers[i].W; big == nil || w.NNZ() > big.NNZ() {
				big = w
			}
		}
		dense := big.ToDense()
		x := make([]float32, big.Cols*e.Batch)
		for i := range x {
			if i%3 == 0 {
				x[i] = 1
			}
		}
		y := make([]float32, big.Rows*e.Batch)
		sp, _ := measure(e.MinMeasure/2, func() error { big.MulBatch(x, e.Batch, y); return nil })
		dn, _ := measure(e.MinMeasure/2, func() error { dense.MulBatchNoSkip(x, e.Batch, y); return nil })
		s := pt.as("spmm")
		s.dur("pass_ns", sp.per())
		s.put("sparsity", big.Sparsity(), "ratio")
		s.count("nnz", int64(big.NNZ()))
		s.count("rows", int64(big.Rows))
		s.count("cols", int64(big.Cols))
		pt.as("dense").dur("pass_ns", dn.per())

		// Priority cuts vs FlowMap.
		mFlow, err := lutmap.MapNetlist(merged.Netlist, lutmap.Options{K: l, Algorithm: lutmap.FlowMap})
		if err != nil {
			return err
		}
		f := pt.as("flowmap")
		f.count("depth", int64(mFlow.Graph.Depth()))
		f.count("luts", int64(len(mFlow.Graph.LUTs)))

		// Wide-gate coalescing (§V known-function polynomials).
		coalesced, err := Compile(c, compile.Options{L: l, CoalesceWide: 16, Merge: true, Trace: e.Trace})
		if err != nil {
			return err
		}
		co := pt.as("coalesced")
		co.count("depth", int64(coalesced.Mapping.Graph.Depth()))
		co.count("connections", int64(coalesced.Model.Net.ComputeStats().Connections))

		// Baseline engine family.
		g := pt.on(gateSim)
		g.as("scalar").put("gcs", BaselineThroughput(merged.Program, stim, e.MinMeasure), "g*c/s")
		g.as("event").put("gcs", EventThroughput(merged.Program, stim, e.MinMeasure), "g*c/s")
		g.as("batch64").put("gcs", Batch64Throughput(merged.Program, stim, e.MinMeasure), "g*c/s")
		e.logf("[ablations] %s L=%d done", c.Name, l)
		return nil
	})
}
