package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/tensor"
)

// AblationRow is one design-choice comparison on a single circuit/L.
type AblationRow struct {
	Name  string
	Value string
}

// AblationConfig tunes the ablation run.
type AblationConfig struct {
	Circuit    string
	L          int
	Batch      int
	MinMeasure time.Duration
	Seed       int64
}

// DefaultAblationConfig uses UART at L=7.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Circuit: "UART", L: 7, Batch: 512,
		MinMeasure: 200 * time.Millisecond, Seed: 3}
}

// RunAblations measures the design choices DESIGN.md calls out:
//
//   - layer merging (Fig. 5) on vs off: layer count and throughput;
//   - float32 vs int32 kernels (§V future work);
//   - sparse CSR vs dense matmul for the largest layer (§III-F);
//   - priority-cut vs FlowMap mapping: depth and LUT count;
//   - baseline engines: scalar vs event-driven vs 64-lane bit-parallel.
func RunAblations(cfg AblationConfig, progress io.Writer) ([]AblationRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	c, err := circuits.ByName(cfg.Circuit)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	add := func(name, format string, args ...any) {
		v := fmt.Sprintf(format, args...)
		rows = append(rows, AblationRow{Name: name, Value: v})
		logf("[ablation] %-42s %s", name, v)
	}

	// --- Merged vs unmerged (Fig. 5 / §III-D) --------------------------
	merged, err := Compile(c, compile.Options{L: cfg.L})
	if err != nil {
		return nil, err
	}
	stim := NewStimulusSet(merged.Netlist, 64, cfg.Batch, cfg.Seed)

	nlRaw, err := c.Elaborate()
	if err != nil {
		return nil, err
	}
	mapRaw, err := lutmap.MapNetlist(nlRaw, lutmap.Options{K: cfg.L})
	if err != nil {
		return nil, err
	}
	unmergedModel, err := nn.Build(nlRaw, mapRaw, nn.BuildOptions{Merge: false, L: cfg.L})
	if err != nil {
		return nil, err
	}
	unmerged := &CompileResult{Circuit: c, Netlist: nlRaw, Mapping: mapRaw,
		Model: unmergedModel, Program: merged.Program, L: cfg.L}

	mGCS, err := NNThroughput(merged, stim, cfg.Batch, 0, simengine.Float32, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	uGCS, err := NNThroughput(unmerged, stim, cfg.Batch, 0, simengine.Float32, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	add("layers merged vs unmerged", "%d vs %d",
		len(merged.Model.Net.Layers), len(unmergedModel.Net.Layers))
	add("throughput merged vs unmerged (g*c/s)", "%.3g vs %.3g (x%.2f)",
		mGCS, uGCS, mGCS/uGCS)

	// --- Float32 vs Int32 vs BitPacked kernels (§V) --------------------
	iGCS, err := NNThroughput(merged, stim, cfg.Batch, 0, simengine.Int32, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	add("throughput float32 vs int32 (g*c/s)", "%.3g vs %.3g (int is x%.2f)",
		mGCS, iGCS, iGCS/mGCS)
	bpGCS, err := NNThroughput(merged, stim, cfg.Batch, 0, simengine.BitPacked, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	add("throughput float32 vs bitpacked (g*c/s)", "%.3g vs %.3g (packed is x%.2f)",
		mGCS, bpGCS, bpGCS/mGCS)

	// --- Sparse vs dense matmul on the largest layer (§III-F) ----------
	var big *tensor.CSR
	for i := range merged.Model.Net.Layers {
		w := merged.Model.Net.Layers[i].W
		if big == nil || w.NNZ() > big.NNZ() {
			big = w
		}
	}
	dense := big.ToDense()
	x := make([]float32, big.Cols*cfg.Batch)
	for i := range x {
		if i%3 == 0 {
			x[i] = 1
		}
	}
	y := make([]float32, big.Rows*cfg.Batch)
	timeIt := func(f func()) time.Duration {
		f() // warm-up
		reps := 0
		start := time.Now()
		for time.Since(start) < cfg.MinMeasure/2 {
			f()
			reps++
		}
		return time.Since(start) / time.Duration(reps)
	}
	sp := timeIt(func() { big.MulBatch(x, cfg.Batch, y) })
	dn := timeIt(func() { dense.MulBatchNoSkip(x, cfg.Batch, y) })
	add("largest layer sparsity", "%.5f (%dx%d, nnz=%d)",
		big.Sparsity(), big.Rows, big.Cols, big.NNZ())
	add("SpMM vs dense matmul per pass", "%s vs %s (sparse x%.1f faster)",
		sp, dn, float64(dn)/float64(sp))

	// --- Priority cuts vs FlowMap --------------------------------------
	mFlow, err := lutmap.MapNetlist(nlRaw, lutmap.Options{K: cfg.L, Algorithm: lutmap.FlowMap})
	if err != nil {
		return nil, err
	}
	add("mapper depth priority-cuts vs FlowMap", "%d vs %d",
		merged.Mapping.Graph.Depth(), mFlow.Graph.Depth())
	add("mapper LUTs priority-cuts vs FlowMap", "%d vs %d",
		len(merged.Mapping.Graph.LUTs), len(mFlow.Graph.LUTs))

	// --- Wide-gate coalescing (§V known-function polynomials) ----------
	coalesced, err := lutmap.Coalesce(merged.Mapping.Graph, 16)
	if err != nil {
		return nil, err
	}
	cModel, err := nn.Build(merged.Netlist, &lutmap.Mapping{
		Graph: coalesced, PINets: merged.Mapping.PINets, OutputNets: merged.Mapping.OutputNets,
	}, nn.BuildOptions{Merge: true, L: cfg.L})
	if err != nil {
		return nil, err
	}
	add("coalesce depth before vs after", "%d vs %d",
		merged.Mapping.Graph.Depth(), coalesced.Depth())
	add("coalesce connections before vs after", "%d vs %d",
		merged.Model.Net.ComputeStats().Connections, cModel.Net.ComputeStats().Connections)

	// --- Baseline engine family ----------------------------------------
	scalar := BaselineThroughput(merged.Program, stim, cfg.MinMeasure)
	event := EventThroughput(merged.Program, stim, cfg.MinMeasure)
	b64 := Batch64Throughput(merged.Program, stim, cfg.MinMeasure)
	add("baseline scalar / event / 64-lane (g*c/s)", "%.3g / %.3g / %.3g",
		scalar, event, b64)
	add("NN speedup over scalar baseline", "x%.1f", mGCS/scalar)

	return rows, nil
}

// FormatAblations renders ablation rows.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %s\n", r.Name, r.Value)
	}
	return b.String()
}
