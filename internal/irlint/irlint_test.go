package irlint_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"c2nn/internal/aig"
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/irlint"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/poly"
	"c2nn/internal/raceflag"
	"c2nn/internal/truthtab"
	"c2nn/internal/verilog"
)

func hasRule(ds []diag.Diagnostic, id string) bool {
	for _, d := range ds {
		if d.Rule == id {
			return true
		}
	}
	return false
}

func wantRule(t *testing.T, ds []diag.Diagnostic, id string) {
	t.Helper()
	if !hasRule(ds, id) {
		t.Fatalf("expected rule %s to fire, got %d diagnostics:\n%s", id, len(ds), render(ds))
	}
}

func render(ds []diag.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// TestCleanPipeline is the acceptance gate: every built-in Table I
// circuit lints to zero errors and zero warnings (infos are allowed —
// NL008 reports the unified clk input, which legitimately has no
// combinational fanout) at both LUT sizes, and the pipeline check
// produces a model.
func TestCleanPipeline(t *testing.T) {
	for _, c := range circuits.All() {
		for _, L := range []int{4, 7} {
			c, L := c, L
			t.Run(fmt.Sprintf("%s_L%d", strings.ReplaceAll(c.Name, " ", "_"), L), func(t *testing.T) {
				t.Parallel()
				// The SAT equivalence stage is minutes-scale under the
				// race detector; the plain build and the CI equivalence
				// job keep it covered.
				skipEquiv := testing.Short() || raceflag.Enabled
				model, report, err := irlint.Check(compile.FromCircuit(c), compile.Options{L: L}, skipEquiv)
				if err != nil {
					t.Fatalf("Check: %v", err)
				}
				cts := report.Counts()
				if cts.Errors != 0 || cts.Warnings != 0 {
					t.Fatalf("want clean pipeline, got %d errors, %d warnings:\n%s",
						cts.Errors, cts.Warnings, report)
				}
				if model == nil {
					t.Fatal("clean report but nil model")
				}
			})
		}
	}
}

// outNetlist returns a minimal valid netlist skeleton: one input bit
// "a" wired straight to output "y", so corruption cases can add their
// defect without tripping unrelated rules.
func outNetlist() (*netlist.Netlist, netlist.NetID) {
	n := netlist.New("t")
	a := n.AddInput("a", 1)
	y := n.AddGate(netlist.Buf, a[0])
	n.AddOutput("y", []netlist.NetID{y})
	return n, a[0]
}

func TestNetlistRules(t *testing.T) {
	cases := []struct {
		rule  string
		build func() *netlist.Netlist
	}{
		{"NL001", func() *netlist.Netlist {
			n, a := outNetlist()
			out := n.NewNet()
			n.AddGateOut(netlist.And, out, a, netlist.NetID(9999))
			n.AddOutput("z", []netlist.NetID{out})
			return n
		}},
		{"NL002", func() *netlist.Netlist {
			n, a := outNetlist()
			out := n.NewNet()
			n.AddGateOut(netlist.Buf, out, a)
			n.AddGateOut(netlist.Not, out, a)
			n.AddOutput("z", []netlist.NetID{out})
			return n
		}},
		{"NL003", func() *netlist.Netlist {
			n, _ := outNetlist()
			n.AddOutput("z", []netlist.NetID{n.NewNet()})
			return n
		}},
		{"NL004", func() *netlist.Netlist {
			n, _ := outNetlist()
			z := n.AddGate(netlist.Not, n.NewNet())
			n.AddOutput("z", []netlist.NetID{z})
			return n
		}},
		{"NL005", func() *netlist.Netlist {
			n, _ := outNetlist()
			u, v := n.NewNet(), n.NewNet()
			n.AddGateOut(netlist.Not, u, v)
			n.AddGateOut(netlist.Not, v, u)
			n.AddOutput("z", []netlist.NetID{u})
			return n
		}},
		{"NL006", func() *netlist.Netlist {
			n, a := outNetlist()
			out := n.NewNet()
			n.Gates = append(n.Gates, netlist.Gate{
				Kind: netlist.GateKind(200), Out: out, In: [3]netlist.NetID{a}})
			n.AddOutput("z", []netlist.NetID{out})
			return n
		}},
		{"NL007", func() *netlist.Netlist {
			n, a := outNetlist()
			n.AddGate(netlist.Not, a) // drives nothing
			return n
		}},
		{"NL008", func() *netlist.Netlist {
			n, _ := outNetlist()
			n.AddInput("unused", 1)
			return n
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			wantRule(t, tc.build().Lint(), tc.rule)
		})
	}
}

// TestValidateDelegatesToLint pins the legacy first-error contract:
// netlist.Validate is now a thin wrapper over the lint rules and names
// the rule that fired.
func TestValidateDelegatesToLint(t *testing.T) {
	n, _ := outNetlist()
	u, v := n.NewNet(), n.NewNet()
	n.AddGateOut(netlist.Not, u, v)
	n.AddGateOut(netlist.Not, v, u)
	n.AddOutput("z", []netlist.NetID{u})
	err := n.Validate()
	if err == nil || !strings.Contains(err.Error(), "NL005") {
		t.Fatalf("Validate = %v, want NL005 combinational-cycle error", err)
	}
	clean, _ := outNetlist()
	if err := clean.Validate(); err != nil {
		t.Fatalf("Validate on clean netlist: %v", err)
	}
}

func TestAIGRules(t *testing.T) {
	cases := []struct {
		rule  string
		build func() (*aig.AIG, []aig.Lit)
	}{
		{"AG001", func() (*aig.AIG, []aig.Lit) {
			g := aig.New(1)
			o := g.AddRawAnd(aig.Lit(9999), g.PI(0))
			return g, []aig.Lit{o}
		}},
		{"AG002", func() (*aig.AIG, []aig.Lit) {
			return aig.New(1), []aig.Lit{aig.Lit(9999)}
		}},
		{"AG003", func() (*aig.AIG, []aig.Lit) {
			g := aig.New(2)
			x := g.AddRawAnd(g.PI(0), g.PI(1))
			y := g.AddRawAnd(g.PI(0), g.PI(1))
			o := g.AddRawAnd(x, y)
			return g, []aig.Lit{o}
		}},
		{"AG004", func() (*aig.AIG, []aig.Lit) {
			g := aig.New(1)
			o := g.AddRawAnd(g.PI(0), g.PI(0))
			return g, []aig.Lit{o}
		}},
		{"AG005", func() (*aig.AIG, []aig.Lit) {
			g := aig.New(2)
			g.AddRawAnd(g.PI(0), g.PI(1)) // reaches no output
			return g, []aig.Lit{g.PI(0)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			g, outs := tc.build()
			wantRule(t, g.Lint(outs), tc.rule)
		})
	}
}

func and2() truthtab.Table {
	return truthtab.FromBits(2, []bool{false, false, false, true})
}

func TestLUTRules(t *testing.T) {
	pi := lutmap.PIRef
	and3 := truthtab.New(3)
	and3.SetBit(7, true)
	cases := []struct {
		rule  string
		build func() *lutmap.Graph
	}{
		{"LM001", func() *lutmap.Graph {
			return &lutmap.Graph{K: 2, NumPIs: 3,
				LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{pi(0), pi(1), pi(2)}, Table: and3}},
				Outputs: []lutmap.NodeRef{0}}
		}},
		{"LM002", func() *lutmap.Graph {
			return &lutmap.Graph{K: 4, NumPIs: 2,
				LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: truthtab.Var(1, 0)}},
				Outputs: []lutmap.NodeRef{0}}
		}},
		{"LM003", func() *lutmap.Graph {
			bad := truthtab.Table{NumVars: 2, Words: []uint64{0xF8}} // padding bits set
			return &lutmap.Graph{K: 4, NumPIs: 2,
				LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: bad}},
				Outputs: []lutmap.NodeRef{0}}
		}},
		{"LM004", func() *lutmap.Graph {
			return &lutmap.Graph{K: 4, NumPIs: 1,
				LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{lutmap.NodeRef(5)}, Table: truthtab.Var(1, 0)}},
				Outputs: []lutmap.NodeRef{0}}
		}},
		{"LM005", func() *lutmap.Graph {
			return &lutmap.Graph{K: 4, NumPIs: 2,
				LUTs: []lutmap.LUT{
					{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: and2()},
					{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: and2()},
				},
				Outputs: []lutmap.NodeRef{0, 1}}
		}},
		{"LM006", func() *lutmap.Graph {
			// 2-input LUT whose function is just var 0.
			return &lutmap.Graph{K: 4, NumPIs: 2,
				LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: truthtab.Var(2, 0)}},
				Outputs: []lutmap.NodeRef{0}}
		}},
		{"LM007", func() *lutmap.Graph {
			return &lutmap.Graph{K: 4, NumPIs: 2,
				LUTs: []lutmap.LUT{
					{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: and2()},
					{Ins: []lutmap.NodeRef{pi(0), pi(1)}, Table: and2().Not()},
				},
				Outputs: []lutmap.NodeRef{0}}
		}},
		{"LM008", func() *lutmap.Graph {
			xor2 := truthtab.FromBits(2, []bool{false, true, true, false})
			return &lutmap.Graph{K: 4, NumPIs: 1,
				LUTs:    []lutmap.LUT{{Ins: []lutmap.NodeRef{pi(0), pi(0)}, Table: xor2}},
				Outputs: []lutmap.NodeRef{0}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			wantRule(t, tc.build().Lint(), tc.rule)
		})
	}
}

func TestPolyRules(t *testing.T) {
	cases := []struct {
		rule  string
		diags func() []diag.Diagnostic
	}{
		{"PL001", func() []diag.Diagnostic {
			p := poly.Poly{NumVars: 1, Terms: []poly.Term{{Mask: 0b10, Coeff: 1}}}
			return p.Lint("t")
		}},
		{"PL002", func() []diag.Diagnostic {
			p := poly.Poly{NumVars: 2, Terms: []poly.Term{{Mask: 2, Coeff: 1}, {Mask: 1, Coeff: 1}}}
			return p.Lint("t")
		}},
		{"PL003", func() []diag.Diagnostic {
			p := poly.Poly{NumVars: 1, Terms: []poly.Term{{Mask: 1, Coeff: 0}}}
			return p.Lint("t")
		}},
		{"PL004", func() []diag.Diagnostic {
			or2 := truthtab.FromBits(2, []bool{false, true, true, true})
			return poly.LintAgainstTable(poly.FromTable(and2()), or2, "t")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			wantRule(t, tc.diags(), tc.rule)
		})
	}
}

// tinyModel compiles a two-gate, one-flip-flop design into a verified
// clean model for the NN corruption cases to mutate.
func tinyModel(t *testing.T) *nn.Model {
	t.Helper()
	src := compile.Source{Files: map[string]string{"tiny.v": `
module tiny(input wire clk, input wire a, input wire b, output wire y);
  reg q;
  always @(posedge clk) q <= a & b;
  assign y = q ^ a;
endmodule
`}}
	model, report, err := irlint.Check(src, compile.Options{L: 4}, false)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.HasErrors() || model == nil {
		t.Fatalf("tiny model not clean:\n%s", report)
	}
	return model
}

func TestNNRules(t *testing.T) {
	cases := []struct {
		rule    string
		corrupt func(m *nn.Model)
	}{
		{"NN001", func(m *nn.Model) { m.Net.TotalUnits++ }},
		{"NN002", func(m *nn.Model) { m.Net.Layers[0].W.RowPtr[0] = 7 }},
		{"NN003", func(m *nn.Model) { m.Net.Layers[0].W.Col[0] = 10000 }},
		{"NN004", func(m *nn.Model) { m.Net.Layers[0].W.Val[0] = float32(math.NaN()) }},
		{"NN005", func(m *nn.Model) {
			l := &m.Net.Layers[0]
			if !l.Threshold {
				panic("layer 0 expected to be a threshold layer")
			}
			l.Bias = l.Bias[:len(l.Bias)-1]
		}},
		{"NN006", func(m *nn.Model) { m.Feedback[0].ToPI = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			m := tinyModel(t)
			tc.corrupt(m)
			wantRule(t, m.Lint(), tc.rule)
		})
	}
}

func TestASTRules(t *testing.T) {
	cases := []struct {
		rule string
		src  string
	}{
		{"VA001", `
module top(input wire a, output wire y);
  ghost u0(.x(a), .y(y));
endmodule
`},
		{"VA002", `
module top(input wire a, output wire y);
  wire tmp;
  wire tmp;
  assign tmp = a;
  assign y = tmp;
endmodule
`},
		{"VA003", `
module top(a, y);
  input wire a;
  assign y = a;
endmodule
`},
		{"VA004", `
module leaf(input wire x, output wire z);
  assign z = x;
endmodule
module top(input wire a, output wire y);
  leaf u0(.x(a), .nope(y));
endmodule
`},
		{"VA005", `
module top(a, a, y);
  input wire a;
  output wire y;
  assign y = a;
endmodule
`},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			d, err := verilog.BuildDesign(map[string]string{"t.v": tc.src}, nil)
			if err != nil {
				t.Fatalf("BuildDesign: %v", err)
			}
			wantRule(t, d.Lint(), tc.rule)
		})
	}
}

// TestCheckStopsAtStage pins the stage-boundary contract: a design
// with Error diagnostics yields a nil model and a report confined to
// the AST stage.
func TestCheckStopsAtStage(t *testing.T) {
	src := compile.Source{Files: map[string]string{"t.v": `
module top(input wire a, output wire y);
  wire tmp;
  wire tmp;
  assign tmp = a;
  assign y = tmp;
endmodule
`}}
	model, report, err := irlint.Check(src, compile.Options{L: 4}, false)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if model != nil {
		t.Fatal("model built despite AST errors")
	}
	if !report.HasErrors() {
		t.Fatal("expected errors in report")
	}
	for _, d := range report.Diags {
		if d.Stage != diag.StageAST {
			t.Fatalf("diagnostic past the failing stage boundary: %s", d)
		}
	}
}

// TestReportJSON pins the machine-readable envelope shape used by CI.
func TestReportJSON(t *testing.T) {
	n, _ := outNetlist()
	n.AddInput("unused", 1)
	r := &diag.Report{}
	r.Add(n.Lint()...)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"diagnostics"`, `"counts"`, `"by_stage"`, `"NL008"`, `"info"`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("JSON envelope missing %s:\n%s", want, b.String())
		}
	}
}

// TestRuleRegistry checks the registry invariants the docs rely on:
// unique IDs (enforced at registration), stable stage prefixes, and at
// least the documented rule count.
func TestRuleRegistry(t *testing.T) {
	rules := diag.Rules()
	if len(rules) < 53 {
		t.Fatalf("registry has %d rules, want >= 53", len(rules))
	}
	prefix := map[diag.Stage]string{
		diag.StageAST: "VA", diag.StageNetlist: "NL", diag.StageAIG: "AG",
		diag.StageLUT: "LM", diag.StagePoly: "PL", diag.StageNN: "NN",
		diag.StagePlan: "EX", diag.StageFault: "FT", diag.StageEquiv: "EQ",
	}
	for _, r := range rules {
		if want := prefix[r.Stage]; !strings.HasPrefix(r.ID, want) {
			t.Errorf("rule %s: stage %s wants prefix %s", r.ID, r.Stage, want)
		}
		if r.Summary == "" {
			t.Errorf("rule %s has no summary", r.ID)
		}
	}
}
