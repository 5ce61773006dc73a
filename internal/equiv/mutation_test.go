package equiv

import (
	"fmt"
	"math/rand"
	"testing"

	"c2nn/internal/fault"
	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/raceflag"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
	"c2nn/internal/truthtab"
)

// mutant is one deliberately broken compile artifact.
type mutant struct {
	name  string
	graph *lutmap.Graph
}

// cloneAt returns a copy of g sharing everything except LUT u, whose
// struct is detached so the caller can replace its table or inputs.
func cloneAt(g *lutmap.Graph, u int) *lutmap.Graph {
	ng := *g
	ng.LUTs = append([]lutmap.LUT(nil), g.LUTs...)
	ng.LUTs[u].Ins = append([]lutmap.NodeRef(nil), g.LUTs[u].Ins...)
	return &ng
}

// stuckTable reproduces internal/fault's faulty-table semantics: the
// whole-output constant for output stuck-ats, the pin-forced cofactor
// spread back over all rows for pin stuck-ats.
func stuckTable(t truthtab.Table, f fault.Fault) truthtab.Table {
	switch f.Kind {
	case fault.OutSA0:
		return truthtab.Const(t.NumVars, false)
	case fault.OutSA1:
		return truthtab.Const(t.NumVars, true)
	}
	r := truthtab.New(t.NumVars)
	for i := 0; i < t.Size(); i++ {
		src := i &^ (1 << uint(f.Pin))
		if f.StuckVal() {
			src |= 1 << uint(f.Pin)
		}
		r.SetBit(i, t.Bit(src))
	}
	return r
}

// buildMutants derives the mutation corpus from the collapsed fault
// universe: the exact faulty table of a simulated stuck-at class
// representative, plus a single truth-table bit flip and a single pin
// rewire at the same site. The universe is far larger than a SAT call
// per member allows (UART L=4 alone has ~6000 simulated classes), so
// sites are stride-sampled down to roughly maxSites, spreading the
// corpus across the whole graph instead of truncating it.
func buildMutants(g *lutmap.Graph, numFFs, maxSites int) []mutant {
	u := fault.Enumerate(g, numFFs)
	var reps []fault.Fault
	for _, cl := range u.Classes {
		if cl.Status != fault.Simulated || cl.Rep.Kind == fault.SEU {
			continue
		}
		reps = append(reps, cl.Rep)
	}
	stride := 1
	if len(reps) > maxSites {
		stride = (len(reps) + maxSites - 1) / maxSites
	}
	var ms []mutant
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < len(reps); i += stride {
		f := reps[i]
		ng := cloneAt(g, f.LUT)
		ng.LUTs[f.LUT].Table = stuckTable(g.LUTs[f.LUT].Table, f)
		ms = append(ms, mutant{name: f.String(), graph: ng})

		// A single-bit table flip at the same site: the finest-grained
		// functional mutation the graph admits.
		row := rng.Intn(g.LUTs[f.LUT].Table.Size())
		fg := cloneAt(g, f.LUT)
		tbl := g.LUTs[f.LUT].Table
		ft := truthtab.New(tbl.NumVars)
		for i := 0; i < tbl.Size(); i++ {
			ft.SetBit(i, tbl.Bit(i) != (i == row))
		}
		fg.LUTs[f.LUT].Table = ft
		ms = append(ms, mutant{name: fmt.Sprintf("lut%d/flip%d", f.LUT, row), graph: fg})

		// A pin rewire at pin-fault sites: retarget the pin to another
		// topologically earlier node (or PI), keeping the DAG acyclic.
		if f.Kind == fault.PinSA0 || f.Kind == fault.PinSA1 {
			old := g.LUTs[f.LUT].Ins[f.Pin]
			alt := lutmap.PIRef(rng.Intn(g.NumPIs))
			if f.LUT > 0 && rng.Intn(2) == 0 {
				alt = lutmap.NodeRef(int32(rng.Intn(f.LUT)))
			}
			if alt != old {
				rg := cloneAt(g, f.LUT)
				rg.LUTs[f.LUT].Ins[f.Pin] = alt
				ms = append(ms, mutant{name: fmt.Sprintf("lut%d.in%d/rewire", f.LUT, f.Pin), graph: rg})
			}
		}
	}
	return ms
}

// diverges simulates both sides on random stimulus and reports whether
// any output differs — the ground truth the prover is judged against
// (sound in the diverging direction only; agreement on random patterns
// proves nothing).
func diverges(a, b *sideIR, numPIs, words int, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	patterns := make([][]uint64, numPIs)
	for i := range patterns {
		p := make([]uint64, words)
		for w := range p {
			p[w] = rng.Uint64()
		}
		patterns[i] = p
	}
	_, outsA := a.sim(patterns)
	_, outsB := b.sim(patterns)
	for j := range outsA {
		for w := range outsA[j] {
			if outsA[j][w] != outsB[j][w] {
				return true
			}
		}
	}
	return false
}

// TestMutationDetection is the checker's self-test: every mutant whose
// divergence random simulation can witness MUST come back NotEquivalent
// with a counterexample, and every Equivalent verdict MUST be
// consistent with simulation (UNSAT is a proof; a diverging pattern
// would refute it).
func TestMutationDetection(t *testing.T) {
	nl, ag, aigOuts, m := stages(t, "UART", 4)
	nlSide, err := netlistSide(nl)
	if err != nil {
		t.Fatal(err)
	}
	sites := 60
	if testing.Short() || raceflag.Enabled {
		sites = 12
	}
	mutants := buildMutants(m.Graph, len(nl.FFs), sites)
	if len(mutants) < sites {
		t.Fatalf("mutation corpus too small: %d", len(mutants))
	}
	var detected, equivalent, truthDiverging int
	for _, mu := range mutants {
		mm := *m
		mm.Graph = mu.graph
		res, err := Prove(nl, ag, aigOuts, &mm, nil, Options{
			Stages:    []StagePair{StageNetlistLUT},
			SkipChain: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", mu.name, err)
		}
		truth := diverges(nlSide, lutSide(mu.graph), len(m.PINets), 8, 99)
		if truth {
			truthDiverging++
		}
		st := res.Miters[0].Status
		switch st {
		case NotEquivalent:
			detected++
			cx := res.FirstCex()
			if cx == nil {
				t.Errorf("%s: SAT verdict without a counterexample", mu.name)
			} else if len(cx.Diverging) == 0 {
				t.Errorf("%s: counterexample does not diverge", mu.name)
			}
		case Equivalent:
			equivalent++
			if truth {
				t.Errorf("%s: simulation diverges but the miter was proven UNSAT", mu.name)
			}
		default:
			t.Errorf("%s: inconclusive verdict on a mutant", mu.name)
		}
		if truth && st != NotEquivalent {
			t.Errorf("%s: known-diverging mutant not detected (got %s)", mu.name, st)
		}
	}
	t.Logf("mutants=%d detected=%d equivalent=%d sim-diverging=%d",
		len(mutants), detected, equivalent, truthDiverging)
	if detected < truthDiverging {
		t.Fatalf("detected %d mutants, simulation alone witnesses %d", detected, truthDiverging)
	}
	if detected*2 < len(mutants) {
		t.Fatalf("only %d/%d mutants detected — corpus or checker is broken", detected, len(mutants))
	}
}

// mergedModel is the Fig. 5 network of a mapping at L=4, the form the
// counterexample replays run on.
func mergedModel(nl *netlist.Netlist, m *lutmap.Mapping) (*nn.Model, error) {
	model, err := nn.Build(nl, m, nn.BuildOptions{L: 4})
	if err != nil {
		return nil, err
	}
	return nn.Merge(model)
}

// TestCexRoundTrip renders miter counterexamples as .tb scripts and
// replays them: the gate-level reference simulator must accept every
// script (the expectations are computed from the netlist), the network
// compiled from the MUTANT graph must fail it at the diverging bit, and
// the network compiled from the true graph must accept it again.
func TestCexRoundTrip(t *testing.T) {
	nl, ag, aigOuts, m := stages(t, "UART", 4)
	prog, err := gatesim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	goodModel, err := mergedModel(nl, m)
	if err != nil {
		t.Fatal(err)
	}
	goodEng, err := simengine.New(goodModel, simengine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer goodEng.Close()

	mutants := buildMutants(m.Graph, len(nl.FFs), 8)
	rounds := 0
	for _, mu := range mutants {
		if rounds >= 4 {
			break
		}
		mm := *m
		mm.Graph = mu.graph
		res, err := Prove(nl, ag, aigOuts, &mm, nil, Options{
			Stages:    []StagePair{StageNetlistLUT},
			SkipChain: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", mu.name, err)
		}
		cx := res.FirstCex()
		if cx == nil {
			continue
		}
		rounds++

		src, err := cx.Script(nl)
		if err != nil {
			t.Fatalf("%s: rendering script: %v", mu.name, err)
		}
		script, err := testbench.Parse(src)
		if err != nil {
			t.Fatalf("%s: parsing rendered script:\n%s\n%v", mu.name, src, err)
		}

		// The netlist reference must accept its own expectations.
		if _, err := script.RunSim(gatesim.NewSim(prog)); err != nil {
			t.Errorf("%s: gate-level replay rejected the cex: %v", mu.name, err)
		}
		// The faithful network must accept them too.
		if _, err := script.Run(goodEng); err != nil {
			t.Errorf("%s: true network rejected the cex: %v", mu.name, err)
		}
		// The mutant network must diverge exactly where the miter said.
		badModel, err := mergedModel(nl, &mm)
		if err != nil {
			t.Fatalf("%s: building mutant network: %v", mu.name, err)
		}
		badEng, err := simengine.New(badModel, simengine.Options{Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = script.Run(badEng)
		badEng.Close()
		if err == nil {
			t.Errorf("%s: mutant network accepted its own counterexample", mu.name)
		}
	}
	if rounds == 0 {
		t.Fatal("no mutant produced a counterexample to round-trip")
	}
}
