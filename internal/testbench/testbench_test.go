package testbench

import (
	"strings"
	"testing"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
)

func counterEngine(t *testing.T, batch int) *simengine.Engine {
	t.Helper()
	nl, err := synth.ElaborateSource("ctr", map[string]string{"c.v": `
module ctr(input clk, rst, en, output [7:0] q);
  reg [7:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 8'd0;
    else if (en) cnt <= cnt + 8'd1;
  end
  assign q = cnt;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := simengine.New(model, simengine.Options{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestScriptDrivesCounter(t *testing.T) {
	eng := counterEngine(t, 4)
	script, err := Parse(`
# reset, then count 5 in lane-varying enables
set rst 1
set en 0
step
set rst 0
set en 1 1 0 1     # lane 2 disabled
step 5
expect q 5 5 0 5
set en 0
step 3
expect q 5 5 0 5   # hold
reset
set rst 0
eval
expect_all q 0
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := script.Run(eng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 9 || res.Checks != 12 {
		t.Errorf("result: %+v", res)
	}
}

func TestScriptDetectsMismatch(t *testing.T) {
	eng := counterEngine(t, 2)
	script, err := Parse("set rst 1\nstep\nset rst 0\nset en 1\nstep 2\nexpect q 99\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = script.Run(eng)
	if err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus directive",
		"set",              // missing operands
		"set a zz",         // bad value
		"step -1",          // bad count
		"expect_all q 1 2", // too many values
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseValueBases(t *testing.T) {
	script, err := Parse("set a 10 0x10 0b10 1_000\nstep\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 16, 2, 1000}
	got := script.Directives[0].Values
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUnknownPortReported(t *testing.T) {
	eng := counterEngine(t, 1)
	script, _ := Parse("set ghost 1\n")
	if _, err := script.Run(eng); err == nil {
		t.Fatal("unknown port accepted")
	}
	script, _ = Parse("expect ghost 1\n")
	if _, err := script.Run(eng); err == nil {
		t.Fatal("unknown output accepted")
	}
}
