package equiv

import (
	"fmt"
	"sort"
	"testing"

	"c2nn/internal/aig"
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/raceflag"
)

// stages lowers a circuit through every stage the prover consumes.
func stages(t *testing.T, name string, l int) (*netlist.Netlist, *aig.AIG, []aig.Lit, *lutmap.Mapping) {
	t.Helper()
	src, err := compile.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Run(src, compile.Options{L: l}, compile.StopAfter(compile.StageMapping))
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist, res.AIG, res.AIGOuts, res.Mapping
}

// TestProveUART is the fast end-to-end check: every stage miter UNSAT,
// every per-LUT chain row verified, no pair abandoned by the sweep —
// on the canonical network and on the merged one, whose chain branch
// is the proof that nn.Merge is exact.
func TestProveUART(t *testing.T) {
	for _, merge := range []bool{false, true} {
		t.Run(fmt.Sprintf("merge=%v", merge), func(t *testing.T) { proveUART(t, merge) })
	}
}

func proveUART(t *testing.T, merge bool) {
	src, err := compile.Builtin("UART")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ProveSource(src, compile.Options{L: 4, Merge: merge}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("UART L=4 not proven equivalent:\n%+v", res)
	}
	if len(res.Miters) != 3 {
		t.Fatalf("want 3 stage miters, got %d", len(res.Miters))
	}
	for _, m := range res.Miters {
		if m.Status != Equivalent {
			t.Errorf("%s: %s", m.Stage, m.Status)
		}
		if m.Cex != nil {
			t.Errorf("%s: UNSAT miter carries a counterexample", m.Stage)
		}
	}
	s := res.Sweep
	if s.Skipped != 0 {
		t.Errorf("sweep abandoned %d pairs, want 0", s.Skipped)
	}
	if s.Merged == 0 || s.Vars == 0 || s.Clauses == 0 {
		t.Errorf("implausible sweep stats: %+v", s)
	}
	if res.Chain == nil || !res.Chain.OK() {
		t.Fatalf("chain proof failed: %+v", res.Chain)
	}
	if res.Chain.LUTs == 0 || res.Chain.RowsChecked == 0 {
		t.Errorf("chain checked nothing: %+v", res.Chain)
	}
	if ds := res.Lint(); len(ds) != 0 {
		t.Errorf("clean certificate produced diagnostics: %v", ds)
	}
}

// TestProveMatrix proves the full benchmark suite at every paper LUT
// size — the static twin of the dynamic simengine.Verify sweep.
func TestProveMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-scale SAT matrix")
	}
	if raceflag.Enabled {
		t.Skip("SAT matrix is an order of magnitude slower under -race; the CI equivalence job covers it")
	}
	// The proofs are independent and single-threaded, so they run as
	// parallel subtests, listed longest first (L=11, then the three big
	// circuits) so that RISC-V L=11 — 40 % of the matrix — is not left
	// for the tail. Merged L=4 is the chain's merged branch, on every
	// circuit where it is cheap.
	type proof struct {
		c     circuits.Circuit
		l     int
		merge bool
	}
	var proofs []proof
	for _, c := range circuits.All() {
		for _, l := range []int{4, 7, 11} {
			proofs = append(proofs, proof{c, l, false})
		}
		proofs = append(proofs, proof{c, 4, true})
	}
	rank := map[string]int{"RISC-V interface": 3, "SHA": 2, "DMA": 1}
	sort.SliceStable(proofs, func(i, j int) bool {
		if proofs[i].l != proofs[j].l {
			return proofs[i].l > proofs[j].l
		}
		return rank[proofs[i].c.Name] > rank[proofs[j].c.Name]
	})
	for _, p := range proofs {
		t.Run(fmt.Sprintf("%s/L=%d/merge=%v", p.c.Name, p.l, p.merge), func(t *testing.T) {
			t.Parallel()
			res, err := ProveSource(compile.FromCircuit(p.c), compile.Options{L: p.l, Merge: p.merge}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("total=%8.1fms sweep=%8.1fms rounds=%d merged=%d skipped=%d",
				res.TotalMillis, res.Sweep.SweepMs, res.Sweep.Rounds, res.Sweep.Merged, res.Sweep.Skipped)
			if !res.Equivalent {
				for _, m := range res.Miters {
					t.Logf("  %s: %s", m.Stage, m.Status)
				}
				t.Fatalf("not equivalent: %+v", res.Chain)
			}
		})
	}
}

// TestSingleStage checks stage selection: only the requested miter is
// built and the unused side is never encoded.
func TestSingleStage(t *testing.T) {
	nl, ag, aigOuts, m := stages(t, "SPI", 4)
	res, err := Prove(nl, ag, aigOuts, m, nil, Options{
		Stages:    []StagePair{StageNetlistAIG},
		SkipChain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Miters) != 1 || res.Miters[0].Stage != StageNetlistAIG {
		t.Fatalf("want exactly the netlist-aig miter, got %+v", res.Miters)
	}
	if !res.Equivalent {
		t.Fatal("SPI netlist-aig miter not proven")
	}
	if res.Sweep.Sides != 2 {
		t.Errorf("one stage pair should encode 2 sides, got %d", res.Sweep.Sides)
	}
	if res.Chain != nil {
		t.Error("SkipChain still produced a chain report")
	}
}

// TestPairingViolation corrupts the mapping's PI order and checks both
// the hard error from Prove and the EQ006 diagnostics from LintPairing.
func TestPairingViolation(t *testing.T) {
	nl, ag, aigOuts, m := stages(t, "UART", 4)
	if len(m.PINets) < 2 {
		t.Fatal("need at least two PIs")
	}
	bad := *m
	bad.PINets = append([]netlist.NetID(nil), m.PINets...)
	bad.PINets[0], bad.PINets[1] = bad.PINets[1], bad.PINets[0]

	if _, err := Prove(nl, ag, aigOuts, &bad, nil, Options{SkipChain: true}); err == nil {
		t.Fatal("Prove accepted a mapping with swapped PI nets")
	}
	ds := LintPairing(nl, ag, aigOuts, &bad)
	if len(ds) == 0 {
		t.Fatal("LintPairing missed the swapped PI nets")
	}
	for _, d := range ds {
		if d.Rule != "EQ006" {
			t.Errorf("want EQ006, got %s", d.Rule)
		}
	}
	if ds := LintPairing(nl, ag, aigOuts, m); len(ds) != 0 {
		t.Errorf("clean mapping produced pairing diagnostics: %v", ds)
	}
}

// TestResultLint checks the certificate → diagnostics mapping rule by
// rule on a synthetic Result.
func TestResultLint(t *testing.T) {
	res := &Result{
		Circuit: "t", L: 4,
		Miters: []*MiterResult{
			{Stage: StageNetlistAIG, Status: NotEquivalent, FailingOutput: 3,
				Cex: &Counterexample{Assignment: "0x5", Diverging: []int{3}}},
			{Stage: StageAIGLUT, Status: Inconclusive, Conflicts: 42},
			{Stage: StageNetlistLUT, Status: Equivalent},
		},
		Chain: &ChainReport{Issues: []ChainIssue{
			{Kind: ChainPoly, LUT: 7, Term: -1, Msg: "row 2 differs"},
			{Kind: ChainValue, LUT: 8, Term: 1, Msg: "value 2 for row 5"},
			{Kind: ChainTrace, LUT: -1, Term: -1, Msg: "trace length"},
		}},
	}
	ds := res.Lint()
	want := []string{"EQ001", "EQ008", "EQ004", "EQ005", "EQ007"}
	if len(ds) != len(want) {
		t.Fatalf("want %d diagnostics, got %d: %v", len(want), len(ds), ds)
	}
	got := map[string]bool{}
	for _, d := range ds {
		got[d.Rule] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing %s in %v", id, ds)
		}
	}
}
