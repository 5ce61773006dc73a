package simengine

import (
	"math/rand"
	"testing"

	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/synth"
)

const crcSrc = `
module crc8(input clk, rst, input en, input [7:0] din, output [7:0] crc,
            output match);
  reg [7:0] r;
  wire [7:0] next;
  assign next = {r[6:0], 1'b0} ^ ((r[7] ^ din[0]) ? 8'h07 : 8'h00);
  always @(posedge clk) begin
    if (rst) r <= 8'd0;
    else if (en) r <= next ^ din;
  end
  assign crc = r;
  assign match = r == 8'hA5;
endmodule`

func buildModel(t *testing.T, src, top string, k int) (*netlist.Netlist, *nn.Model, *gatesim.Program) {
	t.Helper()
	nl, err := synth.ElaborateSource(top, map[string]string{top + ".v": src})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gatesim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	return nl, model, prog
}

func TestVerifyCRC(t *testing.T) {
	for _, k := range []int{3, 6} {
		_, model, prog := buildModel(t, crcSrc, "crc8", k)
		res, err := Verify(model, prog, 60, Options{Batch: 8}, 42)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.Compared == 0 {
			t.Fatal("no comparisons performed")
		}
	}
}

func TestInt32MatchesFloat32(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 5)
	ef, err := New(model, Options{Batch: 16, Precision: Float32})
	if err != nil {
		t.Fatal(err)
	}
	ei, err := New(model, Options{Batch: 16, Precision: Int32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for cyc := 0; cyc < 50; cyc++ {
		for _, port := range []string{"clk", "rst", "en", "din"} {
			vals := make([]uint64, 16)
			for b := range vals {
				switch port {
				case "rst":
					vals[b] = uint64(b2i(cyc == 0))
				case "en":
					vals[b] = uint64(rng.Intn(2))
				default:
					vals[b] = uint64(rng.Intn(256))
				}
			}
			ef.SetInput(port, vals)
			ei.SetInput(port, vals)
		}
		ef.Step()
		ei.Step()
		ef.Forward()
		ei.Forward()
		for _, port := range []string{"crc", "match"} {
			a, _ := ef.GetOutput(port)
			b, _ := ei.GetOutput(port)
			for l := range a {
				if a[l] != b[l] {
					t.Fatalf("cycle %d lane %d: float=%#x int=%#x", cyc, l, a[l], b[l])
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestWorkerCountsAgree(t *testing.T) {
	_, model, prog := buildModel(t, crcSrc, "crc8", 4)
	for _, workers := range []int{1, 2, 8} {
		eng, err := New(model, Options{Batch: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ref := gatesim.NewSim(prog)
		rng := rand.New(rand.NewSource(3))
		for cyc := 0; cyc < 30; cyc++ {
			din := uint64(rng.Intn(256))
			rst := uint64(b2i(cyc == 0))
			eng.SetInputUniform("din", din)
			eng.SetInputUniform("rst", rst)
			eng.SetInputUniform("en", 1)
			eng.SetInputUniform("clk", 0)
			ref.Poke("din", din)
			ref.Poke("rst", rst)
			ref.Poke("en", 1)
			ref.Poke("clk", 0)
			eng.Forward()
			ref.Eval()
			want, _ := ref.Peek("crc")
			got, _ := eng.GetOutput("crc")
			for b := range got {
				if got[b] != want {
					t.Fatalf("workers=%d cycle %d lane %d: %#x != %#x", workers, cyc, b, got[b], want)
				}
			}
			eng.LatchFeedback()
			ref.Step()
		}
	}
}

func TestResetRestoresState(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	eng, err := New(model, Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetInputUniform("rst", 0)
	eng.SetInputUniform("en", 1)
	eng.SetInputUniform("din", 0xAB)
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	eng.Forward()
	before, _ := eng.GetOutput("crc")
	eng.Reset()
	eng.SetInputUniform("rst", 0)
	eng.SetInputUniform("en", 1)
	eng.SetInputUniform("din", 0xAB)
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	eng.Forward()
	after, _ := eng.GetOutput("crc")
	for b := range before {
		if before[b] != after[b] {
			t.Fatalf("lane %d: %#x != %#x after reset", b, before[b], after[b])
		}
	}
}

func TestLanesAreIndependent(t *testing.T) {
	_, model, prog := buildModel(t, crcSrc, "crc8", 4)
	batch := 32
	eng, err := New(model, Options{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*gatesim.Sim, batch)
	for b := range refs {
		refs[b] = gatesim.NewSim(prog)
	}
	rng := rand.New(rand.NewSource(5))
	for cyc := 0; cyc < 40; cyc++ {
		dins := make([]uint64, batch)
		rsts := make([]uint64, batch)
		for b := range dins {
			dins[b] = uint64(rng.Intn(256))
			rsts[b] = uint64(b2i(cyc == 0 || rng.Intn(30) == 0))
		}
		eng.SetInput("din", dins)
		eng.SetInput("rst", rsts)
		eng.SetInputUniform("en", 1)
		eng.SetInputUniform("clk", 0)
		eng.Forward()
		for b := 0; b < batch; b++ {
			refs[b].Poke("din", dins[b])
			refs[b].Poke("rst", rsts[b])
			refs[b].Poke("en", 1)
			refs[b].Poke("clk", 0)
			refs[b].Eval()
		}
		got, _ := eng.GetOutput("crc")
		for b := 0; b < batch; b++ {
			want, _ := refs[b].Peek("crc")
			if got[b] != want {
				t.Fatalf("cycle %d lane %d: %#x != %#x", cyc, b, got[b], want)
			}
		}
		eng.LatchFeedback()
		for b := range refs {
			refs[b].Step()
		}
	}
}

func TestUnknownPorts(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	eng, _ := New(model, Options{})
	if err := eng.SetInput("ghost", nil); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := eng.GetOutput("ghost"); err == nil {
		t.Error("unknown output accepted")
	}
}

// SetInputUniform must leave exactly the state SetInput of a replicated
// value leaves, on every backend, including the partial last packed
// word of batch 67 and the zeroed bits beyond 64 of a wide port (whose
// lanes take two words in SetInput's layout).
func TestSetInputUniformMatchesSetInput(t *testing.T) {
	src := `
module widein(input clk, input [71:0] a, input [4:0] b, output [71:0] y);
  reg [71:0] r;
  always @(posedge clk) r <= a ^ {67'd0, b};
  assign y = r;
endmodule`
	_, model, _ := buildModel(t, src, "widein", 4)
	const batch = 67
	ones := make([]bool, 72)
	for i := range ones {
		ones[i] = true
	}
	for _, prec := range []Precision{Float32, Int32, BitPacked} {
		uni, err := New(model, Options{Batch: batch, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := New(model, Options{Batch: batch, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{0, 0x15, 0xDEADBEEFCAFEF00D, ^uint64(0)} {
			for _, in := range model.Inputs {
				// Dirty every lane first so stale bits would show.
				for lane := 0; lane < batch; lane++ {
					if err := uni.SetInputBits(in.Name, lane, ones); err != nil {
						t.Fatal(err)
					}
				}
				stride := (len(in.Units) + 63) / 64
				vals := make([]uint64, batch*stride)
				for lane := range batch {
					vals[lane*stride] = v
				}
				if err := uni.SetInputUniform(in.Name, v); err != nil {
					t.Fatal(err)
				}
				if err := rep.SetInput(in.Name, vals); err != nil {
					t.Fatal(err)
				}
				for i, u := range in.Units {
					for lane := 0; lane < batch; lane++ {
						if got, want := uni.PeekUnit(u, lane), rep.PeekUnit(u, lane); got != want {
							t.Fatalf("%v %s=%#x bit %d lane %d: uniform %v, replicated %v",
								prec, in.Name, v, i, lane, got, want)
						}
					}
				}
			}
		}
		if err := uni.SetInputUniform("ghost", 1); err == nil {
			t.Errorf("%v: unknown input accepted", prec)
		}
		uni.Close()
		rep.Close()
	}
}

func TestThroughputMetric(t *testing.T) {
	if Throughput(1000, 10, 4, 0) != 0 {
		t.Error("zero elapsed should yield 0")
	}
	got := Throughput(1000, 10, 4, 2e9) // 2 seconds in nanoseconds
	if got != 20000 {
		t.Errorf("throughput = %f", got)
	}
}

// Wide (>64-bit) output ports must be verified across their full width.
func TestVerifyWideBus(t *testing.T) {
	src := `
module wide(input clk, input [63:0] a, b, output [127:0] y);
  reg [127:0] r;
  always @(posedge clk) r <= {a ^ b, a + b};
  assign y = r;
endmodule`
	_, model, prog := buildModel(t, src, "wide", 4)
	res, err := Verify(model, prog, 20, Options{Batch: 3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compared == 0 {
		t.Fatal("no comparisons")
	}
}

func TestGetOutputBits(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	eng, err := New(model, Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetInputUniform("rst", 1)
	eng.Step()
	eng.SetInputUniform("rst", 0)
	eng.SetInputUniform("en", 1)
	eng.SetInputUniform("din", 0xFF)
	eng.Step()
	eng.Forward()
	vals, _ := eng.GetOutput("crc")
	bits, err := eng.GetOutputBits("crc", 0)
	if err != nil {
		t.Fatal(err)
	}
	var fromBits uint64
	for i, b := range bits {
		if b {
			fromBits |= 1 << uint(i)
		}
	}
	if fromBits != vals[0] {
		t.Fatalf("GetOutputBits %#x != GetOutput %#x", fromBits, vals[0])
	}
	if _, err := eng.GetOutputBits("crc", 9); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
	if _, err := eng.GetOutputBits("nope", 0); err == nil {
		t.Fatal("unknown port accepted")
	}
}

// TestKeepAllActivations checks the reuse-free engine mode: every
// unit's activation survives the forward pass (PeekUnit stays valid for
// interior units), the arena matches the flat layout, and outputs agree
// with the default reuse-enabled engine step for step.
func TestKeepAllActivations(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 3)
	keep, err := New(model, Options{Batch: 4, KeepAllActivations: true})
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	reuse, err := New(model, Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reuse.Close()

	if got, want := keep.Plan().ArenaUnits, model.Net.TotalUnits; got != want {
		t.Fatalf("keep-all arena is %d units, flat layout is %d", got, want)
	}
	if reuse.Plan().ArenaUnits >= keep.Plan().ArenaUnits {
		t.Fatalf("reuse arena %d not smaller than keep-all arena %d",
			reuse.Plan().ArenaUnits, keep.Plan().ArenaUnits)
	}

	stim := NewStimulus(model, 4, 7)
	for step := 0; step < 20; step++ {
		in := stim.Next(nil)
		for _, eng := range []*Engine{keep, reuse} {
			if err := stim.Load(eng, in); err != nil {
				t.Fatal(err)
			}
			if step == 0 {
				eng.SetInputUniform("rst", 1)
			}
		}
		keep.Step()
		reuse.Step()
		k, err := keep.GetOutput("crc")
		if err != nil {
			t.Fatal(err)
		}
		r, err := reuse.GetOutput("crc")
		if err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < 4; lane++ {
			if k[lane] != r[lane] {
				t.Fatalf("step %d lane %d: keep-all crc %#x, reuse crc %#x",
					step, lane, k[lane], r[lane])
			}
		}
	}
	// Interior units (neither ports nor feedback) remain peekable in
	// keep-all mode: their slots were never recycled.
	net := model.Net
	if len(net.Layers) > 1 {
		u := net.SegStart[0] // first interior layer unit
		_ = keep.PeekUnit(u, 0)
	}
}
