package c2nn

// Whole-pipeline property tests: randomly generated gate-level circuits
// (combinational and sequential) must survive netlist optimisation, LUT
// mapping at random K, NN construction (merged and unmerged) and batched
// execution with outputs bit-identical to the gate-level reference.
// This is the §IV-A equivalence check turned into a property over the
// space of circuits rather than a fixed benchmark list.

import (
	"fmt"
	"math/rand"
	"testing"

	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
)

// randomCircuit builds a random netlist with nIn input bits, nGates
// gates and nFFs flip-flops; FF D pins and a random selection of gate
// outputs become outputs.
func randomCircuit(rng *rand.Rand, nIn, nGates, nFFs int) *netlist.Netlist {
	nl := netlist.New(fmt.Sprintf("rand%d", rng.Int63()))
	ins := nl.AddInput("in", nIn)
	pool := append([]netlist.NetID{netlist.ConstZero, netlist.ConstOne}, ins...)

	// Flip-flop Q pins join the pool up front so combinational logic can
	// read state; D pins are wired after gates exist.
	qs := make([]netlist.NetID, nFFs)
	for i := range qs {
		qs[i] = nl.NewNet()
		pool = append(pool, qs[i])
	}

	kinds := []netlist.GateKind{
		netlist.Not, netlist.And, netlist.Or, netlist.Xor,
		netlist.Nand, netlist.Nor, netlist.Xnor, netlist.Mux,
	}
	for g := 0; g < nGates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		args := make([]netlist.NetID, kind.Arity())
		for i := range args {
			args[i] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, nl.AddGate(kind, args...))
	}
	for i := range qs {
		d := pool[rng.Intn(len(pool))]
		nl.AddFF(d, qs[i], rng.Intn(2) == 0)
	}
	nOut := 4 + rng.Intn(8)
	outs := make([]netlist.NetID, nOut)
	for i := range outs {
		outs[i] = pool[len(pool)-1-rng.Intn(min(len(pool)-1, nGates+1))]
	}
	nl.AddOutput("out", outs)
	return nl
}

func TestRandomCircuitPipelineEquivalence(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(20260704))
	for trial := 0; trial < trials; trial++ {
		nIn := 2 + rng.Intn(10)
		nGates := 10 + rng.Intn(150)
		nFFs := rng.Intn(12)
		k := 2 + rng.Intn(9)
		merge := rng.Intn(2) == 0

		nl := randomCircuit(rng, nIn, nGates, nFFs)
		if err := nl.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid circuit: %v", trial, err)
		}
		if _, err := nl.Optimize(); err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
		if err != nil {
			t.Fatalf("trial %d (K=%d): map: %v", trial, k, err)
		}
		model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		if merge {
			if model, err = nn.Merge(model); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}
		prog, err := gatesim.Compile(nl)
		if err != nil {
			t.Fatalf("trial %d: gatesim: %v", trial, err)
		}
		if _, err := simengine.Verify(model, prog, 12, simengine.Options{Batch: 4}, int64(trial)); err != nil {
			t.Fatalf("trial %d (K=%d merge=%v, %d gates, %d FFs): %v",
				trial, k, merge, nGates, nFFs, err)
		}
	}
}

// TestRandomCircuitFlowMap runs a smaller sweep through the FlowMap
// mapper, which exercises the max-flow labelling on arbitrary DAGs.
func TestRandomCircuitFlowMap(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < trials; trial++ {
		nl := randomCircuit(rng, 2+rng.Intn(6), 10+rng.Intn(60), rng.Intn(6))
		k := 3 + rng.Intn(4)
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k, Algorithm: lutmap.FlowMap})
		if err != nil {
			t.Fatalf("trial %d: flowmap: %v", trial, err)
		}
		model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		prog, err := gatesim.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simengine.Verify(model, prog, 8, simengine.Options{Batch: 2}, int64(trial)); err != nil {
			t.Fatalf("trial %d (K=%d): %v", trial, k, err)
		}
	}
}

// TestDerivedClockPipelineEquivalence runs a divided-clock design (the
// clock-unification edge-detector path) through the full NN pipeline.
func TestDerivedClockPipelineEquivalence(t *testing.T) {
	nl, err := synth.ElaborateSource("", map[string]string{"d.v": `
module dclk(input clk, rst, output [3:0] slow_cnt, output [7:0] fast_cnt);
  reg div2, div4;
  reg [3:0] sc;
  reg [7:0] fc;
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    if (rst) begin div2 <= 0; fc <= 0; end
    else begin div2 <= ~div2; fc <= fc + 8'd1; end
  end
  always @(posedge div2) begin
    if (rst) div4 <= 0;
    else div4 <= ~div4;
  end
  always @(posedge div4) begin
    if (rst) sc <= 0;
    else begin sc <= sc + 4'd1; mem[sc[1:0]] <= fc; end
  end
  assign slow_cnt = sc;
  assign fast_cnt = fc + mem[0];
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 6} {
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
		if _, err := simengine.Verify(model, prog, 40, simengine.Options{Batch: 4}, 77); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
	}
}

// TestCoalescedPipelineEquivalence checks the §V wide-gate path end to
// end: coalesced models must stay bit-equivalent to the gate level.
func TestCoalescedPipelineEquivalence(t *testing.T) {
	trials := 15
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(515151))
	for trial := 0; trial < trials; trial++ {
		nl := randomCircuit(rng, 3+rng.Intn(8), 20+rng.Intn(100), rng.Intn(8))
		k := 2 + rng.Intn(4)
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		g, err := lutmap.Coalesce(m.Graph, 16)
		if err != nil {
			t.Fatal(err)
		}
		m.Graph = g
		model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := gatesim.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simengine.Verify(model, prog, 10, simengine.Options{Batch: 3}, int64(trial)); err != nil {
			t.Fatalf("trial %d (K=%d): %v", trial, k, err)
		}
	}
}

// TestModelRoundTripRandom saves and reloads a random model and checks
// the reloaded network simulates identically.
func TestModelRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 5; trial++ {
		nl := randomCircuit(rng, 4+rng.Intn(6), 20+rng.Intn(80), rng.Intn(8))
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		model, err := nn.Build(nl, m, nn.BuildOptions{L: 4})
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/m.c2nn"
		if _, err := model.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := nn.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pis := make([]float32, model.Net.NumPIs)
		for i := range pis {
			pis[i] = float32(rng.Intn(2))
		}
		a := model.Net.EvalSingle(pis)
		b := back.Net.EvalSingle(pis)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: unit %d differs after reload", trial, i)
			}
		}
	}
}

// TestCheckKeepsCompileSpans pins the compile span taxonomy and that
// Options.Check only adds to it: the checked compile walks the same
// driver, so it records the same stage spans plus "lint". Merging adds
// the "merge" span under "nn", which attributes the Fig. 5 cost.
func TestCheckKeepsCompileSpans(t *testing.T) {
	spanNames := func(opts Options) map[string]bool {
		opts.L, opts.Trace = 4, NewTrace()
		if _, err := CompileBenchmark("UART", opts); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, s := range opts.Trace.Spans() {
			set[s.Name] = true
			if s.Name != "merge" {
				continue
			}
			attr := map[string]int64{}
			for _, a := range s.Attrs {
				attr[a.Key] = a.Int
			}
			if attr["rows"] == 0 || attr["rows"] >= attr["rows_before"] || attr["nnz"] <= attr["nnz_before"] {
				t.Errorf("merge span attributes %v: want fewer rows and more weights than before", attr)
			}
		}
		return set
	}
	plain, checked, merged := spanNames(Options{NoMerge: true}), spanNames(Options{NoMerge: true, Check: true}), spanNames(Options{})
	if plain["merge"] || !merged["merge"] {
		t.Errorf(`"merge" span: recorded %v under Options.NoMerge, %v without`, plain["merge"], merged["merge"])
	}
	for _, want := range []string{"compile", "parse", "elaborate", "bitblast", "clocks", "netlist.opt",
		"lutmap", "aig", "cuts", "tables", "normalize", "nn", "poly", "network"} {
		if !plain[want] {
			t.Errorf("plain compile records no %q span", want)
		}
	}
	if !checked["lint"] {
		t.Error(`checked compile records no "lint" span`)
	}
	delete(checked, "lint")
	for name := range plain {
		if !checked[name] {
			t.Errorf("span %q is lost under Options.Check", name)
		}
	}
	for name := range checked {
		if !plain[name] {
			t.Errorf("span %q appears only under Options.Check", name)
		}
	}
}
