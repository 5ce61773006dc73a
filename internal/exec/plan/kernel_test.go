package plan

import (
	"reflect"
	"testing"
)

// requireSameGroups fails unless two plans carry bit-identical kernel
// IR: layer count, group order, rows and tables.
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
					if g.Kind == KTable && len(g.Tables) != len(g.Rows) {
						t.Fatalf("layer %d: KTable tables %d for %d rows", li, len(g.Tables), len(g.Rows))
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

// TestRowTableMatchesWeights re-derives each selected truth table by
// brute-force enumeration of the row's weight/threshold form.
func TestRowTableMatchesWeights(t *testing.T) {
	_, p := compilePlan(t, 4, false)
	tables := 0
	for li := range p.Layers {
		l := &p.Layers[li]
		kinds, tabs := l.RowKinds()
		for r := 0; r < l.WInt.Rows; r++ {
			if kinds[r] != KTable {
				continue
			}
			tables++
			p0, p1 := l.WInt.RowPtr[r], l.WInt.RowPtr[r+1]
			k := int(p1 - p0)
			if k > MaxTableInputs {
				t.Fatalf("layer %d row %d: %d-input row selected KTable", li, r, k)
			}
			var th int64
			if !l.Linear() {
				th = int64(l.Thresh[r])
			}
			for i := 0; i < 1<<uint(k); i++ {
				var sum int64
				for j := 0; j < k; j++ {
					if i>>uint(j)&1 == 1 {
						sum += int64(l.WInt.Val[p0+int32(j)])
					}
				}
				want := sum > th
				got := tabs[r]>>uint(i)&1 == 1
				if got != want {
					t.Fatalf("layer %d row %d assignment %d: table %v, weights %v", li, r, i, got, want)
				}
			}
		}
	}
	t.Logf("%d KTable rows verified", tables)
}

// TestTableOpsBounds pins the cost model against the evaluator: pricing
// is positive and constant tables cost exactly one op.
func TestTableOpsBounds(t *testing.T) {
	if TableOps(0, 6) != 1 || TableOps(^uint64(0), 6) != 1 {
		t.Fatal("constant tables must cost one op")
	}
	// Parity of 6 inputs is the Shannon worst case: no constant or
	// shared cofactors anywhere, so the full mux tree is priced.
	var parity uint64
	for i := 0; i < 64; i++ {
		if popcnt6(i)%2 == 1 {
			parity |= 1 << uint(i)
		}
	}
	if ops := TableOps(parity, 6); ops < 100 {
		t.Fatalf("6-input parity priced at %d ops — cost gate would misfire", ops)
	}
	if ops := TableOps(0xAAAAAAAAAAAAAAAA, 6); ops != 1+1+3 {
		// f = x0: one mux over two constant leaves.
		t.Fatalf("f=x0 priced at %d ops, want 5", ops)
	}
}

func popcnt6(i int) int {
	n := 0
	for j := 0; j < 6; j++ {
		n += i >> uint(j) & 1
	}
	return n
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
