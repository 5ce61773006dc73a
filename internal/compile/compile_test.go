package compile

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"c2nn/internal/aig"
)

const tinyV = `
module tiny(input wire clk, input wire a, input wire b, output wire y);
  reg q;
  always @(posedge clk) q <= a & b;
  assign y = q ^ a;
endmodule
`

var tiny = Source{Name: "tiny", Files: map[string]string{"tiny.v": tinyV}}

// TestRunWalksStagesOnce pins the observer contract: every boundary
// fires once, in order, with that stage's IR present; the AIG the
// observer sees is the one that is mapped; transient IRs are released
// once consumed.
func TestRunWalksStagesOnce(t *testing.T) {
	var seen []Stage
	var lowered *aig.AIG
	res, err := Run(tiny, Options{L: 4}, func(st Stage, r *Result) error {
		seen = append(seen, st)
		switch st {
		case StageDesign:
			if r.Design == nil || r.Netlist != nil {
				t.Errorf("design boundary: Design=%v Netlist=%v", r.Design, r.Netlist)
			}
		case StageNetlist:
			if r.Design == nil || r.Netlist == nil {
				t.Error("netlist boundary: Design or Netlist missing")
			}
		case StageAIG:
			lowered = r.AIG
			if r.Design != nil || r.AIG == nil || len(r.AIGOuts) != len(r.Netlist.CombOutputs()) {
				t.Error("AIG boundary: Design kept, or AIG/AIGOuts incomplete")
			}
		case StageMapping:
			if r.AIG != lowered || r.Mapping == nil {
				t.Error("mapping boundary: the AIG is not the one lowered, or no Mapping")
			}
		case StageModel:
			if r.AIG != nil || r.Model == nil {
				t.Error("model boundary: AIG kept, or no Model")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Stage{StageDesign, StageNetlist, StageAIG, StageMapping, StageModel}; !reflect.DeepEqual(seen, want) {
		t.Errorf("boundaries %v, want %v", seen, want)
	}
	if res.Design != nil || res.AIG != nil || res.Netlist == nil || res.Mapping == nil || res.Model == nil {
		t.Errorf("final Result %+v: want Netlist, Mapping, Model only", res)
	}
	if res.Model.L != 4 {
		t.Errorf("model L = %d, want 4", res.Model.L)
	}
}

func TestRunStopAndAbort(t *testing.T) {
	res, err := Run(tiny, Options{}, StopAfter(StageMapping))
	if err != nil {
		t.Fatal(err)
	}
	if res.AIG == nil || res.Mapping == nil || res.Model != nil {
		t.Errorf("stopped at mapping: AIG=%v Mapping=%v Model=%v", res.AIG, res.Mapping, res.Model)
	}
	if res.Mapping.Graph.K != 7 {
		t.Errorf("zero Options mapped at K=%d, want the default 7", res.Mapping.Graph.K)
	}

	boom := errors.New("boom")
	if _, err := Run(tiny, Options{}, func(Stage, *Result) error { return boom }); err != boom {
		t.Errorf("observer error came back as %v", err)
	}
	if _, err := Run(Source{Files: map[string]string{"bad.v": "module"}}, Options{}, nil); err == nil {
		t.Error("a parse failure compiled")
	}
}

func TestTargets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.v")
	if err := os.WriteFile(path, []byte(tinyV), 0o644); err != nil {
		t.Fatal(err)
	}
	names := func(ts []Source) (out []string) {
		for _, s := range ts {
			out = append(out, s.Name)
		}
		return out
	}
	cases := []struct {
		all     bool
		circuit string
		paths   []string
		want    []string
	}{
		{true, "uart", []string{path}, []string{"AES", "DMA", "RISC-V interface", "SHA", "SPI", "UART"}},
		{false, "risc-v", []string{path}, []string{"RISC-V interface"}},
		{false, "", []string{path}, []string{path}},
	}
	for _, tc := range cases {
		ts, err := Targets(tc.all, tc.circuit, tc.paths, "tiny")
		if err != nil || !reflect.DeepEqual(names(ts), tc.want) {
			t.Errorf("Targets(%v, %q, %v) = %v, %v; want %v", tc.all, tc.circuit, tc.paths, names(ts), err, tc.want)
		}
	}
	ts, _ := Targets(false, "", []string{path}, "tiny")
	if ts[0].Top != "tiny" || ts[0].Files[path] != tinyV || !reflect.DeepEqual(ts[0].Order, []string{path}) {
		t.Errorf("file target %+v", ts[0])
	}
	for _, bad := range [][]string{nil, {filepath.Join(t.TempDir(), "missing.v")}} {
		if _, err := Targets(false, "", bad, ""); err == nil {
			t.Errorf("Targets(files=%v) succeeded", bad)
		}
	}
	if _, err := Targets(false, "nope", nil, ""); err == nil {
		t.Error("unknown circuit resolved")
	}
}
