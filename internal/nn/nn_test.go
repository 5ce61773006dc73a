package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/synth"
)

func compile(t *testing.T, src, top string, k int, merge bool) (*netlist.Netlist, *Model) {
	t.Helper()
	nl, err := synth.ElaborateSource(top, map[string]string{top + ".v": src})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	model, err := Build(nl, m, BuildOptions{L: k})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if merge {
		if model, err = Merge(model); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	return nl, model
}

// stepModel runs one clock cycle of the model with EvalSingle and
// returns the activation vector; state persists via qState.
func stepModel(model *Model, inputs map[string]uint64, qState []float32) []float32 {
	pis := make([]float32, model.Net.NumPIs)
	// Restore flip-flop state.
	for i, fb := range model.Feedback {
		pis[fb.ToPI-1] = qState[i]
	}
	for name, v := range inputs {
		pm := model.FindInput(name)
		for i, unit := range pm.Units {
			if v>>uint(i)&1 == 1 {
				pis[unit-1] = 1
			} else {
				pis[unit-1] = 0
			}
		}
	}
	acts := model.Net.EvalSingle(pis)
	for i, fb := range model.Feedback {
		qState[i] = acts[fb.FromUnit]
	}
	return acts
}

func peekModel(model *Model, acts []float32, name string) uint64 {
	pm := model.FindOutput(name)
	var v uint64
	for i, unit := range pm.Units {
		if acts[unit] > 0.5 && i < 64 {
			v |= 1 << uint(i)
		}
	}
	return v
}

const seqSrc = `
module seq(input clk, rst, input [1:0] op, input [7:0] a, b,
           output reg [15:0] acc, output [7:0] f);
  assign f = (a & b) ^ (a + b);
  always @(posedge clk) begin
    if (rst) acc <= 16'hFFFF;
    else begin
      case (op)
        2'd0: acc <= acc + {8'd0, a};
        2'd1: acc <= acc ^ {b, a};
        2'd2: acc <= {acc[14:0], acc[15] ^ acc[3]};
        default: acc <= acc;
      endcase
    end
  end
endmodule`

// The central §IV-A verification: NN outputs must be bit-identical to
// the gate-level simulator across random multi-cycle stimulus, for
// several L and both merged and unmerged networks.
func TestModelMatchesGatesim(t *testing.T) {
	for _, k := range []int{3, 5, 7} {
		for _, merge := range []bool{true, false} {
			nl, model := compile(t, seqSrc, "seq", k, merge)
			prog, err := gatesim.Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			ref := gatesim.NewSim(prog)
			qState := make([]float32, len(model.Feedback))
			for i, fb := range model.Feedback {
				if fb.Init {
					qState[i] = 1
				}
			}
			rng := rand.New(rand.NewSource(int64(k)))
			for cyc := 0; cyc < 120; cyc++ {
				in := map[string]uint64{
					"clk": 0,
					"rst": uint64(b2i(cyc == 0 || rng.Intn(50) == 0)),
					"op":  uint64(rng.Intn(4)),
					"a":   uint64(rng.Intn(256)),
					"b":   uint64(rng.Intn(256)),
				}
				for name, v := range in {
					ref.Poke(name, v)
				}
				ref.Step()
				ref.Eval()
				acts := stepModel(model, in, qState)
				// stepModel latches; to compare post-latch outputs,
				// re-evaluate with held inputs.
				acts = evalHeld(model, in, qState)
				for _, port := range []string{"acc", "f"} {
					want, _ := ref.Peek(port)
					got := peekModel(model, acts, port)
					if got != want {
						t.Fatalf("K=%d merge=%v cycle %d: %s = %#x, want %#x",
							k, merge, cyc, port, got, want)
					}
				}
			}
		}
	}
}

// evalHeld evaluates combinationally with current state, no latch.
func evalHeld(model *Model, inputs map[string]uint64, qState []float32) []float32 {
	pis := make([]float32, model.Net.NumPIs)
	for i, fb := range model.Feedback {
		pis[fb.ToPI-1] = qState[i]
	}
	for name, v := range inputs {
		pm := model.FindInput(name)
		for i, unit := range pm.Units {
			if v>>uint(i)&1 == 1 {
				pis[unit-1] = 1
			}
		}
	}
	return model.Net.EvalSingle(pis)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestMergeHalvesLayers(t *testing.T) {
	_, merged := compile(t, seqSrc, "seq", 4, true)
	_, unmerged := compile(t, seqSrc, "seq", 4, false)
	lm := len(merged.Net.Layers)
	lu := len(unmerged.Net.Layers)
	// merged = depth+1, unmerged = 2*depth+1.
	if lu != 2*(lm-1)+1 {
		t.Errorf("layers: merged=%d unmerged=%d (want unmerged = 2*depth+1)", lm, lu)
	}
}

func TestLayerCountDecreasesWithL(t *testing.T) {
	_, m3 := compile(t, seqSrc, "seq", 3, true)
	_, m8 := compile(t, seqSrc, "seq", 8, true)
	if len(m8.Net.Layers) >= len(m3.Net.Layers) {
		t.Errorf("layers: L=3 -> %d, L=8 -> %d", len(m3.Net.Layers), len(m8.Net.Layers))
	}
}

func TestConnectionsGrowWithL(t *testing.T) {
	_, m3 := compile(t, seqSrc, "seq", 3, true)
	_, m10 := compile(t, seqSrc, "seq", 10, true)
	c3 := m3.Net.ComputeStats().Connections
	c10 := m10.Net.ComputeStats().Connections
	if c10 <= c3 {
		t.Errorf("connections: L=3 -> %d, L=10 -> %d (expected growth)", c3, c10)
	}
}

func TestStatsAndSparsity(t *testing.T) {
	_, model := compile(t, seqSrc, "seq", 5, true)
	s := model.Net.ComputeStats()
	if s.Layers == 0 || s.Connections == 0 || s.Neurons == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MeanSparsity <= 0.5 || s.MeanSparsity > 1 {
		t.Errorf("mean sparsity = %f", s.MeanSparsity)
	}
	if err := model.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, model := compile(t, seqSrc, "seq", 4, true)
	var buf bytes.Buffer
	nbytes, err := model.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nbytes != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", nbytes, buf.Len())
	}
	if model.MemoryBytes() != nbytes {
		t.Errorf("MemoryBytes = %d, want %d", model.MemoryBytes(), nbytes)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CircuitName != model.CircuitName || got.L != model.L ||
		got.GateCount != model.GateCount || got.Merged != model.Merged {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if len(got.Net.Layers) != len(model.Net.Layers) ||
		got.Net.TotalUnits != model.Net.TotalUnits {
		t.Fatalf("network shape mismatch")
	}
	// Behaviour must match exactly.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		pis := make([]float32, model.Net.NumPIs)
		for i := range pis {
			pis[i] = float32(rng.Intn(2))
		}
		a := model.Net.EvalSingle(pis)
		b := got.Net.EvalSingle(pis)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("unit %d differs after reload", i)
			}
		}
	}
	// Port and feedback metadata.
	if len(got.Inputs) != len(model.Inputs) || len(got.Outputs) != len(model.Outputs) ||
		len(got.Feedback) != len(model.Feedback) {
		t.Fatal("port metadata lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestOutputsAreExactBinary(t *testing.T) {
	// The outputs of the linear layer must be exactly 0.0 or 1.0 — the
	// exactness property of §III-B3.
	_, model := compile(t, seqSrc, "seq", 6, true)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		pis := make([]float32, model.Net.NumPIs)
		for i := range pis {
			pis[i] = float32(rng.Intn(2))
		}
		acts := model.Net.EvalSingle(pis)
		for _, pm := range model.Outputs {
			for _, unit := range pm.Units {
				v := acts[unit]
				if v != 0 && v != 1 {
					t.Fatalf("output unit %d = %f (not exact)", unit, v)
				}
			}
		}
	}
}

func TestCombinationalOnly(t *testing.T) {
	src := `
module comb(input [3:0] a, b, output [3:0] y);
  assign y = (a ^ b) & (a | 4'h9);
endmodule`
	nl, model := compile(t, src, "comb", 4, true)
	if len(model.Feedback) != 0 {
		t.Fatal("combinational circuit has feedback")
	}
	prog, _ := gatesim.Compile(nl)
	ref := gatesim.NewSim(prog)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			ref.Poke("a", a)
			ref.Poke("b", b)
			ref.Eval()
			want, _ := ref.Peek("y")
			acts := evalHeld(model, map[string]uint64{"a": a, "b": b}, nil)
			if got := peekModel(model, acts, "y"); got != want {
				t.Fatalf("a=%d b=%d: %d != %d", a, b, got, want)
			}
		}
	}
}

// MemoryBytes must mirror Save exactly (it is computed analytically).
func TestMemoryBytesMatchesSave(t *testing.T) {
	for _, merge := range []bool{true, false} {
		_, model := compile(t, seqSrc, "seq", 5, merge)
		var buf bytes.Buffer
		n, err := model.Save(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := model.MemoryBytes(); got != n {
			t.Fatalf("merge=%v: MemoryBytes=%d, Save wrote %d", merge, got, n)
		}
	}
}
