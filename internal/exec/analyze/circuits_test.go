package analyze

import (
	"fmt"
	"reflect"
	"testing"

	"c2nn/internal/circuits"
	"c2nn/internal/exec/plan"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/raceflag"
)

// compileCircuit lowers a benchmark circuit, or its Fig. 5 merge, to
// an execution plan.
func compileCircuit(t *testing.T, c circuits.Circuit, l int, merge bool) *plan.Plan {
	t.Helper()
	nl, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: l})
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: l})
	if err != nil {
		t.Fatal(err)
	}
	if merge {
		if model, err = nn.Merge(model); err != nil {
			t.Fatal(err)
		}
	}
	p, err := plan.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBenchmarkCircuitsAliasClean is the aliasing proof over the whole
// benchmark suite: every circuit at every paper L compiles to a plan
// the analyzer certifies free of Error- and Warning-severity
// diagnostics (constant rows and dead clusters are Info observations).
// The merged network is proven where building it is cheap, L ≤ 7.
func TestBenchmarkCircuitsAliasClean(t *testing.T) {
	ls := []int{4, 7, 11}
	if raceflag.Enabled {
		// L=11 compiles are minutes-scale under the race detector; the
		// plain `go test ./...` build still proves the full matrix.
		ls = []int{4, 7}
	}
	if testing.Short() {
		ls = []int{4}
	}
	eachForm(t, ls, func(t *testing.T, c circuits.Circuit, l int, merge bool) {
		res, err := Run(compileCircuit(t, c, l, merge), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Diags {
			if d.Severity == diag.Error || d.Severity == diag.Warning {
				t.Errorf("unexpected %s: %s", d.Severity, d)
			}
		}
		if len(res.Meta.Clusters) == 0 {
			t.Fatal("no clusters derived")
		}
	})
}

// eachForm runs f in parallel for every benchmark circuit at every
// given L, on the canonical network and, up to L=7, on the merged one.
func eachForm(t *testing.T, ls []int, f func(t *testing.T, c circuits.Circuit, l int, merge bool)) {
	for _, c := range circuits.All() {
		for _, l := range ls {
			for _, merge := range []bool{false, true} {
				if merge && l > 7 {
					continue
				}
				t.Run(fmt.Sprintf("%s/L=%d/merge=%v", c.Name, l, merge), func(t *testing.T) {
					t.Parallel()
					f(t, c, l, merge)
				})
			}
		}
	}
}

// TestClusterMetaStableAcrossCircuits recompiles every benchmark
// circuit and requires the plan's row groups and the cluster metadata
// to come out identical: both are derived state that every engine
// re-lowers from the model, never stored.
func TestClusterMetaStableAcrossCircuits(t *testing.T) {
	eachForm(t, []int{4, 7}, func(t *testing.T, c circuits.Circuit, l int, merge bool) {
		p1, p2 := compileCircuit(t, c, l, merge), compileCircuit(t, c, l, merge)
		for li := range p1.Layers {
			if !reflect.DeepEqual(p1.Layers[li].Groups, p2.Layers[li].Groups) {
				t.Fatalf("independent recompiles derive different row groups in layer %d", li)
			}
		}
		meta1, err := Cones(p1)
		if err != nil {
			t.Fatal(err)
		}
		meta2, err := Cones(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(meta1, meta2) {
			t.Fatal("independent recompiles derive different cluster metadata")
		}
	})
}
