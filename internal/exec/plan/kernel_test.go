package plan

import (
	"reflect"
	"testing"

	"c2nn/internal/tensor"
)

// requireSameGroups fails unless two plans carry bit-identical kernel
// IR: layer count, group order and rows.
func requireSameGroups(t *testing.T, p1, p2 *Plan) {
	t.Helper()
	if len(p1.Layers) != len(p2.Layers) {
		t.Fatalf("%d layers in one compile, %d in the other", len(p1.Layers), len(p2.Layers))
	}
	for li := range p1.Layers {
		if !reflect.DeepEqual(p1.Layers[li].Groups, p2.Layers[li].Groups) {
			t.Fatalf("layer %d groups differ between independent compiles", li)
		}
	}
}

// TestBuildGroupsDeterministic compiles the same model twice and
// requires bit-identical kernel IR.
func TestBuildGroupsDeterministic(t *testing.T) {
	_, p1 := compilePlan(t, 4, false)
	_, p2 := compilePlan(t, 4, false)
	requireSameGroups(t, p1, p2)
}

// TestGroupsPartitionRows checks buildGroups covers every row exactly
// once, in kind order with ascending rows, on compiled plans.
func TestGroupsPartitionRows(t *testing.T) {
	for _, merge := range []bool{true, false} {
		for _, k := range []int{3, 5} {
			_, p := compilePlan(t, k, merge)
			for li := range p.Layers {
				l := &p.Layers[li]
				covered := make([]bool, l.WInt.Rows)
				prevKind := KernelKind(0)
				for gi, g := range l.Groups {
					if gi > 0 && g.Kind <= prevKind {
						t.Fatalf("layer %d: groups out of kind order at %d", li, gi)
					}
					prevKind = g.Kind
					if len(g.Rows) == 0 {
						t.Fatalf("layer %d: empty group %s emitted", li, g.Kind)
					}
					prev := int32(-1)
					for _, r := range g.Rows {
						if r <= prev {
							t.Fatalf("layer %d group %s: rows not ascending", li, g.Kind)
						}
						prev = r
						if covered[r] {
							t.Fatalf("layer %d row %d: covered twice", li, r)
						}
						covered[r] = true
					}
				}
				for r, c := range covered {
					if !c {
						t.Fatalf("layer %d row %d: uncovered", li, r)
					}
				}
			}
		}
	}
}

// TestKernelIRRoundTrip pins determinism where
// TestBuildGroupsDeterministic does not look: the kernel IR is derived
// state on the merged form and at other K too.
func TestKernelIRRoundTrip(t *testing.T) {
	for _, merge := range []bool{true, false} {
		for _, k := range []int{3, 5} {
			_, p1 := compilePlan(t, k, merge)
			_, p2 := compilePlan(t, k, merge)
			requireSameGroups(t, p1, p2)
		}
	}
}

// TestKernelMixTotals requires the plan-wide mix to tally every row.
func TestKernelMixTotals(t *testing.T) {
	_, p := compilePlan(t, 4, false)
	mix := p.KernelMix()
	total := 0
	for _, n := range mix {
		total += n
	}
	rows := 0
	for li := range p.Layers {
		rows += p.Layers[li].WInt.Rows
	}
	if total != rows {
		t.Fatalf("kernel mix tallies %d rows, plan has %d", total, rows)
	}
	t.Logf("mix: %v", mix)
}

// row builds a single-row layer for kind-selection tests: a threshold
// row unless linear is set.
func row(weights []int32, thresh int32, linear bool) *Layer {
	cols := make([]int32, len(weights))
	fvals := make([]float32, len(weights))
	for i := range weights {
		cols[i] = int32(i + 1)
		fvals[i] = float32(weights[i])
	}
	l := &Layer{
		W:    &tensor.CSR{Rows: 1, Cols: len(weights) + 1, RowPtr: []int32{0, int32(len(weights))}, Col: cols, Val: fvals},
		WInt: &tensor.Int32CSR{Rows: 1, Cols: len(weights) + 1, RowPtr: []int32{0, int32(len(weights))}, Col: cols, Val: weights},
	}
	if !linear {
		l.Thresh = []int32{thresh}
	}
	return l
}

// TestKindOfRow pins the kernel selected for each row shape the
// specialized kernels recognise, and the fallbacks for the rest.
func TestKindOfRow(t *testing.T) {
	cases := []struct {
		name  string
		layer *Layer
		want  KernelKind
	}{
		{"buffer", row([]int32{1}, 0, false), KCopy},
		{"inverter", row([]int32{-1}, -1, false), KNot},
		{"and3", row([]int32{1, 1, 1}, 2, false), KAnd},
		{"or3", row([]int32{1, 1, 1}, 0, false), KOr},
		{"nand3", row([]int32{-1, -1, -1}, -3, false), KNand},
		{"nor3", row([]int32{-1, -1, -1}, -1, false), KNor},
		{"const-never", row([]int32{1, 1}, 2, false), KConst0},
		{"const-always", row([]int32{1, 1}, -1, false), KConst1},
		{"empty", row(nil, 0, false), KConst0},
		{"general", row([]int32{2, 1}, 1, false), KGeneral},
		{"xor-form", row([]int32{1, 1, -2}, 0, true), KXor2},
		{"linear-buffer", row([]int32{1}, 0, true), KCopy},
		{"linear-general", row([]int32{1, 1, -1}, 0, true), KLinear},
		{"linear-6", row([]int32{1, 1, 1, 1, -2, -2}, 0, true), KLinear},
	}
	for _, tc := range cases {
		if got := KindOfRow(tc.layer, 0); got != tc.want {
			t.Errorf("%s: selected %s, want %s", tc.name, got, tc.want)
		}
	}
}
