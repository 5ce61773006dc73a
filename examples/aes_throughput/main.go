// AES throughput: the paper's headline scenario. Compiles the AES-128
// benchmark circuit at a chosen LUT size, verifies NN/gate-level
// equivalence, then races the batched-parallel NN engine against the
// scalar baseline simulator and reports gates·cycles/s and the speed-up
// (the Table I measurement, on one circuit).
//
//	go run ./examples/aes_throughput [-L 7] [-batch 512]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"c2nn/internal/bench"
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/simengine"
)

func main() {
	lutSize := flag.Int("L", 7, "LUT size")
	batch := flag.Int("batch", 512, "NN stimulus batch")
	flag.Parse()

	c, err := circuits.ByName("AES")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiling AES-128 (%d Verilog LoC) at L=%d…\n", c.LinesOfCode(), *lutSize)
	res, err := bench.Compile(c, compile.Options{L: *lutSize})
	if err != nil {
		log.Fatal(err)
	}
	stats := res.Model.Net.ComputeStats()
	fmt.Printf("  %d gates -> %d LUTs -> %d NN layers, %.2fM connections, sparsity %.5f (gen %s)\n",
		res.Netlist.GateCount(), len(res.Mapping.Graph.LUTs), stats.Layers,
		float64(stats.Connections)/1e6, stats.MeanSparsity,
		res.GenTime.Round(time.Millisecond))

	// §IV-A: outputs must match the gate-level reference exactly.
	if _, err := simengine.Verify(res.Model, res.Program, 12, simengine.Options{Batch: 4}, 7); err != nil {
		log.Fatal("equivalence check failed: ", err)
	}
	fmt.Println("  equivalence with gate-level simulation: VERIFIED")

	stim := bench.NewStimulusSet(res.Model, 32, *batch, 42)
	const minT = 500 * time.Millisecond

	base := bench.BaselineThroughput(res.Program, stim, minT)
	fmt.Printf("baseline (scalar levelized, 1 stimulus/pass): %.3E gates*cycles/s\n", base)

	nngcs, err := bench.NNThroughput(res, stim, *batch, runtime.GOMAXPROCS(0), simengine.Float32, minT, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NN engine (batch=%d, %d workers):             %.3E gates*cycles/s\n",
		*batch, runtime.GOMAXPROCS(0), nngcs)
	fmt.Printf("speed-up: x%.1f\n", nngcs/base)
}
