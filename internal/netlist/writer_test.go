package netlist

import (
	"strings"
	"testing"
)

func TestWriteVerilogSmoke(t *testing.T) {
	// Structural round-trip behaviour is tested at the repository root;
	// this covers the emitter shape within the package.
	n := New("w")
	a := n.AddInput("a", 1)
	q := n.NewNet()
	d := n.AddGate(Not, q)
	n.AddFF(d, q, false)
	o := n.AddGate(Or, q, a[0])
	n.AddOutput("y", []NetID{o})

	var sb strings.Builder
	if err := n.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"module w", "input  wire a", "input  wire clk",
		"always @(posedge clk)", "endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in Verilog output:\n%s", want, out)
		}
	}
}
