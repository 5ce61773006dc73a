// Equivalence: the paper's §IV-A verification, run across the whole
// benchmark suite. Every circuit is compiled at several LUT sizes and
// the neural network's outputs are compared bit-for-bit against the
// gate-level reference simulator on random multi-cycle stimuli.
//
//	go run ./examples/equivalence [-cycles 32] [-batch 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"c2nn/internal/bench"
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/simengine"
)

func main() {
	cycles := flag.Int("cycles", 32, "cycles per check")
	batch := flag.Int("batch", 8, "stimulus lanes per check")
	flag.Parse()

	lutSizes := []int{3, 7}
	total := int64(0)
	for _, c := range circuits.All() {
		for _, l := range lutSizes {
			start := time.Now()
			res, err := bench.Compile(c, compile.Options{L: l})
			if err != nil {
				log.Fatalf("%s at L=%d: %v", c.Name, l, err)
			}
			v, err := simengine.Verify(res.Model, res.Program, *cycles, simengine.Options{Batch: *batch}, 2026)
			if err != nil {
				log.Fatalf("%s at L=%d: MISMATCH: %v", c.Name, l, err)
			}
			total += v.Compared
			fmt.Printf("%-18s L=%-2d  %8d gates  %3d layers  %9d comparisons  OK  (%s)\n",
				c.Name, l, res.Netlist.GateCount(), len(res.Model.Net.Layers),
				v.Compared, time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Printf("\nall circuits equivalent: %d total output comparisons, zero mismatches\n", total)
}
