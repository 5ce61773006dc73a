package analyze

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"c2nn/internal/exec/plan"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
	"c2nn/internal/tensor"
)

const crcSrc = `
module crc8(input clk, rst, input en, input [7:0] din, output [7:0] crc,
            output match);
  reg [7:0] r;
  wire [7:0] next;
  assign next = {r[6:0], 1'b0} ^ ((r[7] ^ din[0]) ? 8'h07 : 8'h00);
  always @(posedge clk) begin
    if (rst) r <= 8'd0;
    else if (en) r <= next ^ din;
  end
  assign crc = r;
  assign match = r == 8'hA5;
endmodule`

func buildModel(t *testing.T, k int, merge bool) *nn.Model {
	t.Helper()
	nl, err := synth.ElaborateSource("crc8", map[string]string{"crc8.v": crcSrc})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
	if err != nil {
		t.Fatal(err)
	}
	if merge {
		if model, err = nn.Merge(model); err != nil {
			t.Fatal(err)
		}
	}
	return model
}

func compilePlan(t *testing.T, k int, merge bool) (*nn.Model, *plan.Plan) {
	t.Helper()
	model := buildModel(t, k, merge)
	p, err := plan.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	return model, p
}

func severities(ds []diag.Diagnostic) (errs, warns, infos int) {
	for _, d := range ds {
		switch d.Severity {
		case diag.Error:
			errs++
		case diag.Warning:
			warns++
		default:
			infos++
		}
	}
	return
}

// TestRunClean analyzes clean compiles: no errors, no warnings, the
// summary info present, and the clustering attached to the plan.
func TestRunClean(t *testing.T) {
	for _, merge := range []bool{true, false} {
		for _, k := range []int{3, 5} {
			_, p := compilePlan(t, k, merge)
			res, err := Run(p, Options{})
			if err != nil {
				t.Fatalf("merge=%v K=%d: %v", merge, k, err)
			}
			errs, warns, infos := severities(res.Diags)
			if errs != 0 || warns != 0 {
				t.Fatalf("merge=%v K=%d: %d errors / %d warnings on a clean plan, first: %s",
					merge, k, errs, warns, res.Diags[0])
			}
			if infos == 0 {
				t.Fatalf("merge=%v K=%d: missing PA008 summary", merge, k)
			}
			if res.Plan != p || p.Clusters == nil {
				t.Fatalf("merge=%v K=%d: clustering not attached to the plan", merge, k)
			}
			if len(p.Clusters.RowCluster) != len(p.Layers) {
				t.Fatalf("merge=%v K=%d: row-cluster table covers %d of %d layers",
					merge, k, len(p.Clusters.RowCluster), len(p.Layers))
			}
			if got := len(res.Cost.Layers); got != len(p.Layers) {
				t.Fatalf("merge=%v K=%d: cost model priced %d of %d layers", merge, k, got, len(p.Layers))
			}
		}
	}
}

// TestAliasingCatchesCorruption hand-breaks a freshly compiled plan one
// way per case — slot double-assignment, premature arena reuse,
// liveness truncation, blocks placed on the const+PI block or on a live
// block — and requires the matching PA diagnostic, on both network
// forms. VerifyAliasing is the one static proof of arena reuse, so this
// table also carries the block-overlap corruptions.
func TestAliasingCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		rule   string
		opts   plan.Options
		mutate func(p *plan.Plan) bool
	}{
		// Two PI-block units assigned one slot: both live for the whole
		// pass, so sharing is a double assignment.
		{"pi-slot-double-assign", "PA001", plan.Options{}, func(p *plan.Plan) bool {
			if 1+p.Model.Net.NumPIs < 3 {
				return false
			}
			p.Slot[2] = p.Slot[1]
			return true
		}},
		// A rewritten operand column: the kernel reads the layer's own
		// output slot instead of the producing unit's slot.
		{"stale-operand-read", "PA001", plan.Options{}, func(p *plan.Plan) bool {
			li := len(p.Layers) - 1
			l := &p.Layers[li]
			if len(l.WInt.Col) == 0 {
				return false
			}
			cols := make([]int32, len(l.WInt.Col))
			copy(cols, l.WInt.Col)
			if cols[0] == l.OutSlot {
				return false
			}
			cols[0] = l.OutSlot
			mi := *l.WInt
			mi.Col = cols
			l.WInt = &mi
			return true
		}},
		// Premature reuse: layer 1 reads layer 0's block, so placing
		// layer 1's output on top of it clobbers live activations.
		{"premature-reuse", "PA002", plan.Options{}, overlapFirstBlocks},
		// Liveness truncation: a feedback D unit's residency is cut
		// short — its slot map entry points at the const slot, so after
		// the pass the latch would read another unit's value.
		{"liveness-truncation", "PA003", plan.Options{}, func(p *plan.Plan) bool {
			if len(p.Model.Feedback) == 0 {
				return false
			}
			p.Slot[p.Model.Feedback[0].FromUnit] = 0
			return true
		}},
		// The last layer's output block placed on the const+PI block,
		// which is live for the whole pass.
		{"overlap-pi-block", "PA002", plan.Options{}, func(p *plan.Plan) bool {
			p.Layers[len(p.Layers)-1].OutSlot = 0
			return true
		}},
		// Layer 1's block placed on layer 0's, which layer 1 reads.
		{"overlap-live-block", "PA002", plan.Options{}, overlapFirstBlocks},
		// The same overlap in a reuse-free plan, where no block may share
		// rows with another at all.
		{"disable-reuse-block-overlap", "PA002", plan.Options{DisableArenaReuse: true}, overlapFirstBlocks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, merge := range []bool{false, true} {
				t.Run(fmt.Sprintf("merge=%v", merge), func(t *testing.T) {
					p, err := plan.CompileOpts(buildModel(t, 4, merge), tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					if !tc.mutate(p) {
						t.Fatalf("plan shape does not admit the %s mutation", tc.name)
					}
					ds := VerifyAliasing(p)
					for _, d := range ds {
						if d.Rule == tc.rule {
							return
						}
					}
					t.Fatalf("mutation not caught by %s; got %d diagnostics: %v", tc.rule, len(ds), ds)
				})
			}
		})
	}
}

// overlapFirstBlocks places layer 1's output block on layer 0's.
func overlapFirstBlocks(p *plan.Plan) bool {
	if len(p.Layers) < 2 {
		return false
	}
	p.Layers[1].OutSlot = p.Layers[0].OutSlot
	return true
}

// TestAliasingCleanAcrossShapes proves every compile shape clean,
// including reuse-free plans.
func TestAliasingCleanAcrossShapes(t *testing.T) {
	for _, merge := range []bool{true, false} {
		model := buildModel(t, 3, merge)
		for _, disable := range []bool{false, true} {
			p, err := plan.CompileOpts(model, plan.Options{DisableArenaReuse: disable})
			if err != nil {
				t.Fatal(err)
			}
			if ds := VerifyAliasing(p); len(ds) != 0 {
				t.Fatalf("merge=%v reuse-off=%v: %d diagnostics, first: %s", merge, disable, len(ds), ds[0])
			}
		}
	}
}

// TestClusterRoundTrip pins determinism: the clustering is derived
// state, so recompiling the same circuit must yield an equal one.
func TestClusterRoundTrip(t *testing.T) {
	_, p := compilePlan(t, 4, false)
	meta, err := plan.ComputeClusters(p)
	if err != nil {
		t.Fatal(err)
	}
	_, p2 := compilePlan(t, 4, false)
	meta2, err := plan.ComputeClusters(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(meta, meta2) {
		t.Fatal("identical compiles derived different clusterings")
	}
}

// TestClusterLintCatchesCorruption breaks the metadata and requires
// PA004/PA005 to fire.
func TestClusterLintCatchesCorruption(t *testing.T) {
	newMeta := func(t *testing.T) (*plan.Plan, *plan.ClusterMeta) {
		t.Helper()
		_, p := compilePlan(t, 4, false)
		meta, err := plan.ComputeClusters(p)
		if err != nil {
			t.Fatal(err)
		}
		return p, meta
	}

	t.Run("broken-back-pointer", func(t *testing.T) {
		p, meta := newMeta(t)
		if len(meta.RowCluster) == 0 || len(meta.RowCluster[0]) == 0 {
			t.Skip("no rows")
		}
		meta.RowCluster[len(meta.RowCluster)-1][0] = 0 // points at a layer-0 cluster
		ds := lintClusters(p, meta)
		for _, d := range ds {
			if d.Rule == "PA004" {
				return
			}
		}
		t.Fatalf("PA004 not raised: %v", ds)
	})

	t.Run("dropped-pred-edge", func(t *testing.T) {
		p, meta := newMeta(t)
		found := false
		for ci := range meta.Clusters {
			if len(meta.Clusters[ci].Preds) > 0 {
				meta.Clusters[ci].Preds = meta.Clusters[ci].Preds[1:]
				found = true
				break
			}
		}
		if !found {
			t.Skip("no cluster with predecessors")
		}
		ds := lintClusters(p, meta)
		for _, d := range ds {
			if d.Rule == "PA005" {
				return
			}
		}
		t.Fatalf("PA005 not raised: %v", ds)
	})

	t.Run("dropped-root", func(t *testing.T) {
		p, meta := newMeta(t)
		found := false
		for ci := range meta.Clusters {
			if len(meta.Clusters[ci].Roots) > 0 {
				meta.Clusters[ci].Roots = nil
				found = true
				break
			}
		}
		if !found {
			t.Skip("no cluster with roots")
		}
		ds := lintClusters(p, meta)
		for _, d := range ds {
			if d.Rule == "PA005" {
				return
			}
		}
		t.Fatalf("PA005 not raised: %v", ds)
	})
}

// TestConesDeterministic re-derives the clustering many times and
// requires identical structure each run (map iteration must not leak).
func TestConesDeterministic(t *testing.T) {
	_, p := compilePlan(t, 3, false)
	base, err := plan.ComputeClusters(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := plan.ComputeClusters(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("run %d produced a different clustering", i)
		}
	}
}

// TestDegenerateLint builds a model with a never-firing threshold row
// and an empty linear row, and requires PA006 on exactly the former:
// constant-0 linear rows are padding, not wasted compares.
func TestDegenerateLint(t *testing.T) {
	// Units: 0 const, 1..2 PIs, 3..4 threshold rows, 5..6 linear rows.
	// Row 3 buffers PI 1; row 4 reads PI 2 against threshold 1, which
	// its one +1 weight can never exceed. Row 5 copies row 3; row 6
	// reads nothing.
	w0 := &tensor.CSR{Rows: 2, Cols: 3, RowPtr: []int32{0, 1, 2}, Col: []int32{1, 2}, Val: []float32{1, 1}}
	w1 := &tensor.CSR{Rows: 2, Cols: 5, RowPtr: []int32{0, 1, 1}, Col: []int32{3}, Val: []float32{1}}
	net := &nn.Network{
		NumPIs:     2,
		SegStart:   []int32{3, 5},
		TotalUnits: 7,
		Layers: []nn.Layer{
			{W: w0, Bias: []float32{0, 1}, Threshold: true},
			{W: w1},
		},
	}
	model := &nn.Model{
		Net:     net,
		Inputs:  []nn.PortMap{{Name: "a", Units: []int32{1}}, {Name: "b", Units: []int32{2}}},
		Outputs: []nn.PortMap{{Name: "y", Units: []int32{4, 5, 6}}},
	}
	p, err := plan.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	ds := lintConstRows(p)
	if len(ds) != 1 || ds[0].Rule != "PA006" || ds[0].Loc != "layer 0" ||
		!strings.Contains(ds[0].Msg, "row 1 ") {
		t.Fatalf("want one PA006 on layer 0 row 1, got %v", ds)
	}
}

// TestDeadCluster builds a two-component model where one component's
// row feeds nothing, and requires PA007 on exactly that cluster.
func TestDeadCluster(t *testing.T) {
	// Units: 0 const, 1..2 PIs, 3..4 layer rows. Row 0 buffers PI 1 and
	// drives the output; row 1 buffers PI 2 and drives nothing.
	w := &tensor.CSR{Rows: 2, Cols: 3, RowPtr: []int32{0, 1, 2}, Col: []int32{1, 2}, Val: []float32{1, 1}}
	net := &nn.Network{
		NumPIs:     2,
		SegStart:   []int32{3},
		TotalUnits: 5,
		Layers:     []nn.Layer{{W: w, Bias: []float32{0, 0}, Threshold: true}},
	}
	model := &nn.Model{
		Net:     net,
		Inputs:  []nn.PortMap{{Name: "a", Units: []int32{1}}, {Name: "b", Units: []int32{2}}},
		Outputs: []nn.PortMap{{Name: "y", Units: []int32{3}}},
	}
	p, err := plan.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := plan.ComputeClusters(p)
	if err != nil {
		t.Fatal(err)
	}
	ds := lintClusters(p, meta)
	var dead []diag.Diagnostic
	for _, d := range ds {
		if d.Rule == "PA007" {
			dead = append(dead, d)
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if len(dead) != 1 {
		t.Fatalf("want exactly one PA007, got %d: %v", len(dead), ds)
	}
}

// TestClusterCostPartition: cluster costs partition layer costs.
func TestClusterCostPartition(t *testing.T) {
	_, p := compilePlan(t, 4, false)
	meta, err := plan.ComputeClusters(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Clusters = meta
	rep := Cost(p)
	perLayer := make([]int64, len(p.Layers))
	for _, cc := range ClusterCosts(p) {
		perLayer[cc.Layer] += cc.PackedWordOps
	}
	for li, lc := range rep.Layers {
		if perLayer[li] != lc.PackedWordOps {
			t.Fatalf("layer %d: clusters sum to %d word ops, layer model says %d",
				li, perLayer[li], lc.PackedWordOps)
		}
	}
}

// TestDirtyCostFraction prices an activity engine's own per-cluster
// dispatch counts: the first pass dispatches every cluster, and with
// constant-zero inputs and a held FF state no later pass dispatches
// any, so the run spent exactly one pass's worth of the static cost.
func TestDirtyCostFraction(t *testing.T) {
	model, _ := compilePlan(t, 4, false)
	eng, err := simengine.New(model, simengine.Options{Batch: 2, Activity: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const steps = 4
	for i := 0; i < steps; i++ {
		eng.Step()
	}
	p, dirty := eng.Plan(), eng.ActivityClusterDirty(nil)
	if len(dirty) != len(p.Clusters.Clusters) {
		t.Fatalf("%d per-cluster counts, plan has %d clusters", len(dirty), len(p.Clusters.Clusters))
	}
	if got, want := DirtyCostFraction(p, dirty, steps), 1.0/steps; got != want {
		t.Fatalf("quiet run: dirty cost fraction %v, want %v", got, want)
	}
	for ci := range dirty {
		dirty[ci] = steps
	}
	if got := DirtyCostFraction(p, dirty, steps); got != 1 {
		t.Fatalf("all-dirty run: dirty cost fraction %v, want 1", got)
	}
	if got := DirtyCostFraction(p, dirty, 0); got != 0 {
		t.Fatalf("no passes: dirty cost fraction %v, want 0", got)
	}
}
