package analyze

import (
	"bytes"
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
// circuit and requires the cluster metadata to (a) round-trip through
// serialization bit for bit and structurally, and (b) come out
// identical on an independent recompile — the determinism the
// activity-driven backend will rely on when it loads clusters from a
// plan compiled elsewhere.
func TestClusterMetaStableAcrossCircuits(t *testing.T) {
	eachForm(t, []int{4, 7}, func(t *testing.T, c circuits.Circuit, l int, merge bool) {
		meta1, err := Cones(compileCircuit(t, c, l, merge))
		if err != nil {
			t.Fatal(err)
		}
		meta2, err := Cones(compileCircuit(t, c, l, merge))
		if err != nil {
			t.Fatal(err)
		}
		var buf1, buf2 bytes.Buffer
		if _, err := meta1.WriteTo(&buf1); err != nil {
			t.Fatal(err)
		}
		if _, err := meta2.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatal("independent recompiles serialize different cluster metadata")
		}
		back, err := plan.ReadClusterMeta(&buf1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(meta1, back) {
			t.Fatal("cluster metadata did not round-trip through serialization")
		}
	})
}
