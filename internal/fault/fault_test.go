package fault

import (
	"errors"
	"reflect"
	"testing"

	"c2nn/internal/exec/plan"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
	"c2nn/internal/truthtab"
)

var precisions = []simengine.Precision{simengine.Float32, simengine.Int32, simengine.BitPacked}

// classWith finds the class containing fault f.
func classWith(t *testing.T, u *Universe, f Fault) *Class {
	t.Helper()
	for ci := range u.Classes {
		for _, m := range u.Classes[ci].Members {
			if m == f {
				return &u.Classes[ci]
			}
		}
	}
	t.Fatalf("no class contains %s", f)
	return nil
}

func TestEnumerateAND2Collapse(t *testing.T) {
	// AND2: the three sa0 faults (output, both pins) share the Const0
	// faulty table and collapse; output sa1 is dominated by the pin sa1
	// faults; the two pin sa1 faults stay distinct.
	g := &lutmap.Graph{
		K: 2, NumPIs: 2,
		LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{lutmap.PIRef(0), lutmap.PIRef(1)}, Table: truthtab.FromBits(2, []bool{false, false, false, true})}},
		Outputs: []lutmap.NodeRef{0},
	}
	u := Enumerate(g, 0)
	if u.Raw != 6 {
		t.Fatalf("Raw = %d, want 6", u.Raw)
	}
	if len(u.Classes) != 4 {
		t.Fatalf("got %d classes, want 4: %+v", len(u.Classes), u.Classes)
	}
	sa0 := classWith(t, u, Fault{Kind: OutSA0})
	wantMembers := []Fault{{Kind: OutSA0}, {Kind: PinSA0, Pin: 0}, {Kind: PinSA0, Pin: 1}}
	if !reflect.DeepEqual(sa0.Members, wantMembers) {
		t.Errorf("sa0 class members = %v, want %v", sa0.Members, wantMembers)
	}
	if sa0.Status != Simulated || sa0.Rep != (Fault{Kind: OutSA0}) {
		t.Errorf("sa0 class: status %v rep %v", sa0.Status, sa0.Rep)
	}
	if c := classWith(t, u, Fault{Kind: OutSA1}); c.Status != Dominated {
		t.Errorf("out/sa1 status = %v, want dominated", c.Status)
	}
	for pin := 0; pin < 2; pin++ {
		c := classWith(t, u, Fault{Kind: PinSA1, Pin: pin})
		if len(c.Members) != 1 || c.Status != Simulated {
			t.Errorf("in%d/sa1 class = %+v, want its own simulated class", pin, c)
		}
	}
	sim, untest, dom, unmod := u.Counts()
	if sim != 3 || untest != 0 || dom != 1 || unmod != 0 {
		t.Errorf("counts = %d/%d/%d/%d, want 3/0/1/0", sim, untest, dom, unmod)
	}
	if ds := u.Lint(g); len(ds) != 0 {
		t.Errorf("lint on AND2 universe: %v", ds)
	}
}

func TestEnumerateXOR2NoCollapse(t *testing.T) {
	// XOR2: every single fault has a distinct faulty function and no
	// fault dominates another — six singleton simulated classes.
	g := &lutmap.Graph{
		K: 2, NumPIs: 2,
		LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{lutmap.PIRef(0), lutmap.PIRef(1)}, Table: truthtab.FromBits(2, []bool{false, true, true, false})}},
		Outputs: []lutmap.NodeRef{0},
	}
	u := Enumerate(g, 0)
	if u.Raw != 6 || len(u.Classes) != 6 {
		t.Fatalf("raw %d classes %d, want 6 and 6", u.Raw, len(u.Classes))
	}
	for ci := range u.Classes {
		c := &u.Classes[ci]
		if len(c.Members) != 1 || c.Status != Simulated {
			t.Errorf("class %d = %+v, want singleton simulated", ci, c)
		}
	}
	if ds := u.Lint(g); len(ds) != 0 {
		t.Errorf("lint on XOR2 universe: %v", ds)
	}
}

func TestStemBranchMerge(t *testing.T) {
	// LUT0 = AND(pi0, pi1) feeds only LUT1 = OR(lut0, pi2): the stem
	// output faults of LUT0 merge with the branch pin faults on LUT1's
	// pin 0.
	and := truthtab.FromBits(2, []bool{false, false, false, true})
	or := truthtab.FromBits(2, []bool{false, true, true, true})
	g := &lutmap.Graph{
		K: 2, NumPIs: 3,
		LUTs: []lutmap.LUT{
			{Ins: []lutmap.NodeRef{lutmap.PIRef(0), lutmap.PIRef(1)}, Table: and},
			{Ins: []lutmap.NodeRef{0, lutmap.PIRef(2)}, Table: or},
		},
		Outputs: []lutmap.NodeRef{1},
	}
	u := Enumerate(g, 0)
	for v := 0; v < 2; v++ {
		outKind, pinKind := OutSA0, PinSA0
		if v == 1 {
			outKind, pinKind = OutSA1, PinSA1
		}
		c := classWith(t, u, Fault{Kind: outKind, LUT: 0})
		found := false
		for _, m := range c.Members {
			if m == (Fault{Kind: pinKind, LUT: 1, Pin: 0}) {
				found = true
			}
		}
		if !found {
			t.Errorf("stem lut0/sa%d not merged with branch lut1.in0/sa%d: members %v", v, v, c.Members)
		}
	}
	if ds := u.Lint(g); len(ds) != 0 {
		t.Errorf("lint on stem/branch universe: %v", ds)
	}
}

func TestConstLUTStatuses(t *testing.T) {
	// A constant-0 LUT: every sa0 fault is untestable, and the sa1
	// output fault cannot be expressed as an input forcing → unmodeled.
	g := &lutmap.Graph{
		K: 1, NumPIs: 1,
		LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{lutmap.PIRef(0)}, Table: truthtab.Const(1, false)}},
		Outputs: []lutmap.NodeRef{0},
	}
	u := Enumerate(g, 0)
	if u.Raw != 4 {
		t.Fatalf("Raw = %d, want 4", u.Raw)
	}
	if c := classWith(t, u, Fault{Kind: OutSA0}); c.Status != Untestable || len(c.Members) != 3 {
		t.Errorf("const sa0 class = %+v, want 3-member untestable", c)
	}
	if c := classWith(t, u, Fault{Kind: OutSA1}); c.Status != Unmodeled {
		t.Errorf("const out/sa1 status = %v, want unmodeled", c.Status)
	}
	sim, untest, _, unmod := u.Counts()
	if sim != 0 || untest != 1 || unmod != 1 {
		t.Errorf("counts sim=%d untest=%d unmod=%d, want 0/1/1", sim, untest, unmod)
	}
	// An all-untestable universe must warn FT004.
	ds := u.Lint(g)
	warned := false
	for _, d := range ds {
		if d.Rule == RuleEmptyUniverse.ID {
			warned = true
		}
	}
	if !warned {
		t.Errorf("expected FT004 on empty universe, got %v", ds)
	}
}

// compile elaborates Verilog, maps it at K=4 and builds the model.
func compile(t *testing.T, top, src string) (*netlist.Netlist, *lutmap.Mapping, *nn.Model) {
	t.Helper()
	nl, err := synth.ElaborateSource(top, map[string]string{top + ".v": src})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: 4})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return nl, m, model
}

// formPrec is one configuration fault injection must agree across.
type formPrec struct {
	model *nn.Model
	prec  simengine.Precision
}

// formsAndPrecisions crosses the model and its Fig. 5 merge with every
// backend: the overlay reads a materialised signal unit in the one and
// a term-unit value form in the other.
func formsAndPrecisions(t *testing.T, model *nn.Model) []formPrec {
	t.Helper()
	merged, err := nn.Merge(model)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var out []formPrec
	for _, m := range []*nn.Model{model, merged} {
		for _, prec := range precisions {
			out = append(out, formPrec{m, prec})
		}
	}
	return out
}

// evalFaulty evaluates the graph with one fault injected, returning the
// values in g.Outputs order — the injection oracle.
func evalFaulty(g *lutmap.Graph, pis []bool, f Fault) []bool {
	vals := make([]bool, len(g.LUTs))
	ref := func(r lutmap.NodeRef) bool {
		if r.IsPI() {
			return pis[r.PI()]
		}
		return vals[r.LUT()]
	}
	for u := range g.LUTs {
		idx := 0
		for p, in := range g.LUTs[u].Ins {
			b := ref(in)
			if (f.Kind == PinSA0 || f.Kind == PinSA1) && f.LUT == u && f.Pin == p {
				b = f.StuckVal()
			}
			if b {
				idx |= 1 << uint(p)
			}
		}
		v := g.LUTs[u].Table.Bit(idx)
		if (f.Kind == OutSA0 || f.Kind == OutSA1) && f.LUT == u {
			v = f.StuckVal()
		}
		vals[u] = v
	}
	out := make([]bool, len(g.Outputs))
	for i, r := range g.Outputs {
		out[i] = ref(r)
	}
	return out
}

// TestInjectionMatchesFaultyEval is the core correctness check: for a
// combinational circuit, every simulated fault class injected through
// the overlay must make the engine's faulty lane reproduce a direct
// evaluation of the faulted LUT graph — on all three backends, on the
// canonical and the merged network.
func TestInjectionMatchesFaultyEval(t *testing.T) {
	const src = `module fcomb(input [3:0] a, input [3:0] b, output [3:0] x, output [3:0] y);
  wire [3:0] tt;
  assign tt = a & b;
  assign x = tt ^ (a | b);
  assign y = tt | (a ^ b);
endmodule
`
	nl, m, canonical := compile(t, "fcomb", src)
	g := m.Graph
	u := Enumerate(g, 0)
	sims := u.SimulatedClasses()
	if len(sims) == 0 {
		t.Fatal("no simulated classes")
	}

	// Output port bit → graph output index, as bindPorts resolves it.
	outIdx := make(map[netlist.NetID]int)
	for j, net := range m.OutputNets {
		if _, dup := outIdx[net]; !dup {
			outIdx[net] = j
		}
	}

	const batch = 8
	for _, cfg := range formsAndPrecisions(t, canonical) {
		model, prec := cfg.model, cfg.prec
		eng, err := simengine.New(model, simengine.Options{
			Batch: batch, Precision: prec, KeepAllActivations: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		stim := simengine.NewStimulus(model, 1, 7)
		for lo := 0; lo < len(sims); lo += batch - 1 {
			hi := lo + batch - 1
			if hi > len(sims) {
				hi = len(sims)
			}
			chunk := sims[lo:hi]
			ov, err := NewOverlay(model, g, -1)
			if err != nil {
				t.Fatal(err)
			}
			for i, ci := range chunk {
				if err := ov.AddFault(u.Classes[ci].Rep, i+1); err != nil {
					t.Fatal(err)
				}
			}
			eng.Reset()
			if err := eng.WithFaults(ov); err != nil {
				t.Fatal(err)
			}
			for vec := 0; vec < 8; vec++ {
				pis := make([]bool, g.NumPIs)
				in := stim.Next(nil)
				if err := stim.Load(eng, in); err != nil {
					t.Fatal(err)
				}
				for p, port := range model.Inputs {
					for i, bit := range stim.Bits(in, p, 0) {
						pis[int(port.Units[i])-1] = bit
					}
				}
				eng.Forward()
				for lane := 0; lane < 1+len(chunk); lane++ {
					f := Fault{Kind: SEU, FF: -1} // no-op fault for the golden lane
					if lane > 0 {
						f = u.Classes[chunk[lane-1]].Rep
					}
					want := evalFaulty(g, pis, f)
					for _, out := range nl.Outputs {
						got, err := eng.GetOutputBits(out.Name, lane)
						if err != nil {
							t.Fatal(err)
						}
						for i, bit := range got {
							if w := want[outIdx[out.Bits[i]]]; bit != w {
								t.Fatalf("%v merged=%v lane %d fault %s vec %d: %s[%d] = %v, want %v",
									prec, model.Merged, lane, f, vec, out.Name, i, bit, w)
							}
						}
					}
				}
			}
			if err := eng.WithFaults(nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
	}
}

const counterSrc = `module ctr(input clk, rst, en, output [7:0] q);
  reg [7:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 8'd0;
    else if (en) cnt <= cnt + 8'd1;
  end
  assign q = cnt;
endmodule
`

// TestGradeSequential grades a sequential counter with random stimuli
// and checks the report arithmetic plus identical detection on every
// backend and in both network forms.
func TestGradeSequential(t *testing.T) {
	_, m, model := compile(t, "ctr", counterSrc)
	u := Enumerate(m.Graph, len(model.Feedback))
	if len(model.Feedback) == 0 {
		t.Fatal("counter has no flip-flops")
	}
	if ds := u.Lint(m.Graph); len(ds) != 0 {
		t.Fatalf("universe lint: %v", ds)
	}

	var detected [][]string
	for _, cfg := range formsAndPrecisions(t, model) {
		model, prec := cfg.model, cfg.prec
		rep, err := Grade(model, m.Graph, u, nil, Config{
			Precision: prec, Batch: 16, RandomCycles: 64, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		if rep.Detected+rep.Undetected != rep.Simulated {
			t.Errorf("%v: detected %d + undetected %d != simulated %d",
				prec, rep.Detected, rep.Undetected, rep.Simulated)
		}
		if rep.Detected == 0 || rep.Coverage <= 0 {
			t.Errorf("%v: nothing detected (coverage %.1f%%)", prec, rep.Coverage)
		}
		if rep.RawFaults != u.Raw || rep.Classes != len(u.Classes) {
			t.Errorf("%v: universe counts drifted: %+v", prec, rep)
		}
		detected = append(detected, rep.DetectedFaults)
	}
	for i := 1; i < len(detected); i++ {
		if !reflect.DeepEqual(detected[0], detected[i]) {
			t.Errorf("detected sets differ between configurations 0 and %d:\n%v\n%v",
				i, detected[0], detected[i])
		}
	}
}

// TestGradeGoldenLaneUnaffected runs a faulted engine and a fault-free
// engine over the same stimuli and requires identical golden outputs.
func TestGradeGoldenLaneUnaffected(t *testing.T) {
	_, m, model := compile(t, "ctr", counterSrc)
	u := Enumerate(m.Graph, len(model.Feedback))
	sims := u.SimulatedClasses()

	faulty, err := simengine.New(model, simengine.Options{Batch: 8, KeepAllActivations: true})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	clean, err := simengine.New(model, simengine.Options{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	ov, err := NewOverlay(model, m.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7 && i < len(sims); i++ {
		if err := ov.AddFault(u.Classes[sims[i]].Rep, i+1); err != nil {
			t.Fatal(err)
		}
	}
	faulty.Reset()
	clean.Reset()
	if err := faulty.WithFaults(ov); err != nil {
		t.Fatal(err)
	}

	stim := simengine.NewStimulus(model, 1, 3)
	for cyc := 0; cyc < 32; cyc++ {
		in := stim.Next(nil)
		if err := errors.Join(stim.Load(faulty, in), stim.Load(clean, in)); err != nil {
			t.Fatal(err)
		}
		faulty.Step()
		clean.Step()
		for _, out := range model.Outputs {
			a, err := faulty.GetOutputBits(out.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := clean.GetOutputBits(out.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cycle %d: golden lane drifted on %s: %v vs %v", cyc, out.Name, a, b)
			}
		}
	}
}

// TestOverlayLintFlags checks FT001/FT002 on a deliberately bad overlay
// and a clean pass on a good one.
func TestOverlayLintFlags(t *testing.T) {
	_, m, model := compile(t, "ctr", counterSrc)
	u := Enumerate(m.Graph, len(model.Feedback))
	sims := u.SimulatedClasses()
	if len(sims) < 2 {
		t.Fatal("need at least two simulated classes")
	}
	fp, err := plan.CompileOpts(model, plan.Options{DisableArenaReuse: true})
	if err != nil {
		t.Fatal(err)
	}

	good, err := NewOverlay(model, m.Graph, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.AddFault(u.Classes[sims[0]].Rep, 1); err != nil {
		t.Fatal(err)
	}
	if ds := good.Lint(fp, 8); len(ds) != 0 {
		t.Errorf("clean overlay flagged: %v", ds)
	}

	bad, err := NewOverlay(model, m.Graph, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.AddFault(u.Classes[sims[0]].Rep, 0); err != nil { // golden lane
		t.Fatal(err)
	}
	if err := bad.AddFault(u.Classes[sims[1]].Rep, 99); err != nil { // beyond batch
		t.Fatal(err)
	}
	var ft001, ft002 bool
	for _, d := range bad.Lint(fp, 8) {
		switch d.Rule {
		case RuleOverlayTarget.ID:
			ft001 = true
		case RuleGoldenLane.ID:
			ft002 = true
		}
	}
	if !ft001 || !ft002 {
		t.Errorf("bad overlay: FT001=%v FT002=%v, want both", ft001, ft002)
	}
}

// TestWithFaultsNeedsKeepAll ensures the arena-reuse guard holds.
func TestWithFaultsNeedsKeepAll(t *testing.T) {
	_, m, model := compile(t, "ctr", counterSrc)
	eng, err := simengine.New(model, simengine.Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, err := NewOverlay(model, m.Graph, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WithFaults(ov); err == nil {
		t.Fatal("WithFaults accepted an engine without KeepAllActivations")
	}
}
