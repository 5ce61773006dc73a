package analyze

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
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
//
// The same plans pin their static cost against planCostFile once every
// subtest has finished.
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
	var mu sync.Mutex
	pins := map[string]string{}
	t.Cleanup(func() {
		if !t.Failed() {
			checkPlanCost(t, pins)
		}
	})
	eachForm(t, ls, func(t *testing.T, c circuits.Circuit, l int, merge bool) {
		p := compileCircuit(t, c, l, merge)
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Diags {
			if d.Severity == diag.Error || d.Severity == diag.Warning {
				t.Errorf("unexpected %s: %s", d.Severity, d)
			}
		}
		if len(p.Clusters.Clusters) == 0 {
			t.Fatal("no clusters derived")
		}
		form := "canonical"
		if merge {
			form = "merged"
		}
		key := fmt.Sprintf("%s/L=%d/%s", strings.ReplaceAll(c.Name, " ", "_"), l, form)
		mu.Lock()
		pins[key] = planCost(p, res.Cost)
		mu.Unlock()
	})
}

// update rewrites planCostFile from the plans
// TestBenchmarkCircuitsAliasClean compiles.
var update = flag.Bool("update", false, "rewrite testdata/plan_cost.txt")

// planCostFile pins the static cost of every benchmark plan, one line
// per circuit × L × form, the way testdata/model_sha256.txt pins the
// model bytes: a change in kernel selection, grouping or arena layout
// shows up here in either direction.
const planCostFile = "../../../testdata/plan_cost.txt"

// planCost renders one plan's pin: layers, row groups per pass, arena
// rows, packed word ops per pass and per gate, and rows per kernel kind.
func planCost(p *plan.Plan, cost *CostReport) string {
	groups := 0
	for li := range p.Layers {
		groups += len(p.Layers[li].Groups)
	}
	fields := []string{
		fmt.Sprintf("layers=%d", len(p.Layers)),
		fmt.Sprintf("groups=%d", groups),
		fmt.Sprintf("arena_units=%d", p.ArenaUnits),
		fmt.Sprintf("word_ops=%d", cost.Total.PackedWordOps),
		fmt.Sprintf("word_ops_per_gate=%.3f", float64(cost.Total.PackedWordOps)/float64(p.Model.GateCount)),
	}
	mix := p.KernelMix()
	for _, kind := range slices.Sorted(maps.Keys(mix)) {
		fields = append(fields, fmt.Sprintf("rows.%s=%d", kind, mix[kind]))
	}
	return strings.Join(fields, " ")
}

// checkPlanCost compares the pins this run computed with planCostFile
// (or rewrites the file under -update). Only the computed pins are
// compared, so -short and -race runs check the L they reach.
func checkPlanCost(t *testing.T, got map[string]string) {
	keys := slices.Sorted(maps.Keys(got))
	if *update {
		if testing.Short() || raceflag.Enabled {
			t.Fatal("-update needs the full matrix: run without -short and -race")
		}
		var b strings.Builder
		b.WriteString("# Static plan cost per circuit × L × form. Regenerate with\n" +
			"# go test ./internal/exec/analyze -run TestBenchmarkCircuitsAliasClean -update\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(planCostFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(planCostFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			want[f[0]] = pinFields(f[1:])
		}
	}
	var delta []string
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			delta = append(delta, fmt.Sprintf("  %-30s %-22s %12s %12s", k, "(pin)", "-", "new"))
			continue
		}
		g := pinFields(strings.Fields(got[k]))
		union := maps.Clone(w)
		maps.Copy(union, g)
		for _, name := range slices.Sorted(maps.Keys(union)) {
			if g[name] != w[name] {
				delta = append(delta, fmt.Sprintf("  %-30s %-22s %12s %12s", k, name, orDash(w[name]), orDash(g[name])))
			}
		}
	}
	if len(delta) > 0 {
		t.Errorf("plan cost differs from %s (accept with -update):\n  %-30s %-22s %12s %12s\n%s",
			planCostFile, "pin", "field", "want", "got", strings.Join(delta, "\n"))
	}
}

// pinFields splits name=value fields.
func pinFields(fields []string) map[string]string {
	m := make(map[string]string, len(fields))
	for _, f := range fields {
		name, value, _ := strings.Cut(f, "=")
		m[name] = value
	}
	return m
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
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
		meta1, err := plan.ComputeClusters(p1)
		if err != nil {
			t.Fatal(err)
		}
		meta2, err := plan.ComputeClusters(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(meta1, meta2) {
			t.Fatal("independent recompiles derive different cluster metadata")
		}
	})
}
