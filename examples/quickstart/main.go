// Quickstart: compile a small hand-written Verilog design into a neural
// network and simulate it, end to end, in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
)

// A toy sequential circuit: a 1-byte accumulator with a saturating flag.
const src = `
module accum(input clk, rst, input [7:0] x, output [7:0] sum, output sat);
  reg [7:0] acc;
  wire [8:0] wide = {1'b0, acc} + {1'b0, x};
  always @(posedge clk) begin
    if (rst)            acc <= 8'd0;
    else if (!wide[8])  acc <= wide[7:0];   // hold on overflow
  end
  assign sum = acc;
  assign sat = wide[8];
endmodule`

func main() {
	// 1. Parse + elaborate Verilog into a gate-level netlist.
	netl, err := synth.ElaborateSource("accum", map[string]string{"accum.v": src})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %d gates, %d flip-flops\n", netl.NumGates(), netl.NumFFs())

	// 2. Cover the combinational core with L-input LUTs (paper Fig. 3).
	const L = 4
	mapping, err := lutmap.MapNetlist(netl, lutmap.Options{K: L})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapping: %d LUTs, depth %d (L=%d)\n",
		len(mapping.Graph.LUTs), mapping.Graph.Depth(), L)

	// 3. Convert each LUT's polynomial into threshold neurons and an
	//    exact linear neuron per signal (paper Fig. 2).
	model, err := nn.Build(netl, mapping, nn.BuildOptions{L: L})
	if err != nil {
		log.Fatal(err)
	}
	stats := model.Net.ComputeStats()
	fmt.Printf("network: %d layers, %d connections, mean sparsity %.4f\n",
		stats.Layers, stats.Connections, stats.MeanSparsity)

	//    Optional: the paper's Fig. 5 pass folds every linear layer into
	//    the threshold layer that reads it — half the depth, more
	//    connections. Either model simulates identically below.
	merged, err := nn.Merge(model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged:  %d layers\n", len(merged.Net.Layers))

	// 4. Simulate a batch of 4 independent stimulus lanes for 5 cycles.
	eng, err := simengine.New(model, simengine.Options{Batch: 4})
	if err != nil {
		log.Fatal(err)
	}
	eng.SetInput("rst", []uint64{1, 1, 1, 1})
	eng.Step()
	eng.SetInputUniform("rst", 0)
	for cycle := 1; cycle <= 5; cycle++ {
		// Each lane accumulates a different increment.
		eng.SetInput("x", []uint64{1, 10, 50, 200})
		eng.Step()
		eng.Forward() // settle outputs for reading
		sum, _ := eng.GetOutput("sum")
		sat, _ := eng.GetOutput("sat")
		fmt.Printf("cycle %d: sum=%v sat=%v\n", cycle, sum, sat)
	}
}
