package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"c2nn/internal/exec/plan"
	"c2nn/internal/gatesim"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/vcd"
)

// runRun implements the "c2nn run" subcommand: it runs a compiled .c2nn
// model or a freshly compiled circuit — batched multi-cycle simulation
// with random or scripted stimuli — or, with -verify, compares that same
// model on the requested backend, batch and workers output-for-output
// against the levelized gate-level reference on identical random
// stimuli (the paper's §IV-A verification).
func runRun(args []string) error {
	fs := flag.NewFlagSet("c2nn run", flag.ExitOnError)
	s := sessionFlags(fs, "[-verify | -info] [-cycles n] [-vcd out.vcd]", "float32", 256)
	var (
		cycles  = fs.Int("cycles", 256, "random-stimulus clock cycles to simulate (none after a -tb script)")
		verify  = fs.Bool("verify", false, "compare NN outputs against the gate-level simulator")
		vcdPath = fs.String("vcd", "", "dump lane-0 port waveforms of the random-stimulus cycles to this VCD file")
		info    = fs.Bool("info", false, "print the per-layer structure of the model and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	if err := s.open("", fs.Args(), nil); err != nil {
		return err
	}
	model := s.model
	fmt.Printf("%s: L=%d, %d layers, %d gates, ready in %s\n", s.name, model.L,
		len(model.Net.Layers), model.GateCount, time.Since(start).Round(time.Millisecond))

	if *info {
		printInfo(model)
		return nil
	}
	if *verify {
		if s.res == nil {
			return fmt.Errorf("-verify needs -circuit or Verilog files (the gate-level reference is compiled from source)")
		}
		prog, err := gatesim.Compile(s.res.Netlist)
		if err != nil {
			return err
		}
		res, err := simengine.Verify(model, prog, *cycles, s.opts, *s.seed)
		if err != nil {
			return err
		}
		fmt.Printf("VERIFIED: %d cycles x %d lanes on %s (%d workers), %d comparisons, all identical\n",
			res.Cycles, res.Batch, s.opts.Precision, s.opts.Workers, res.Compared)
		return nil
	}

	if err := s.start(); err != nil {
		return err
	}
	defer s.eng.Close()

	// lane0 reads lane 0 of an output port at full width.
	lane0 := func(port nn.PortMap) []uint64 {
		out, _ := s.eng.GetOutput(port.Name) // the port comes from the model
		return out[:len(out)/s.eng.Batch()]
	}
	var settled func(cyc int, in simengine.Cycle)
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		widths := make(map[string]int)
		for _, p := range model.Inputs {
			widths[p.Name] = len(p.Units)
		}
		for _, p := range model.Outputs {
			widths[p.Name] = len(p.Units)
		}
		tracer := vcd.NewPortTracer(vcd.NewWriter(f, "1ns", model.CircuitName), widths)
		defer tracer.Close()
		// A VCD sample word carries the low 64 bits of a port.
		sample := make(map[string]uint64)
		settled = func(cyc int, in simengine.Cycle) {
			for p, port := range model.Inputs {
				sample[port.Name] = in[p][0]
			}
			for _, out := range model.Outputs {
				sample[out.Name] = lane0(out)[0]
			}
			tracer.Sample(uint64(cyc), sample)
		}
	}

	if s.script != nil {
		*cycles = 0
	}
	d, err := s.drive(*cycles, settled, nil)
	if err != nil {
		return err
	}
	if s.script != nil {
		fmt.Printf("testbench PASSED: %d steps, %d checks, %d stimulus loads\n",
			d.tb.Steps, d.tb.Checks, d.tb.Applied)
	}
	s.report(d)

	s.eng.Forward()
	for _, out := range model.Outputs {
		fmt.Printf("  %s[lane0] = %s\n", out.Name, formatWords(lane0(out), len(out.Units)))
	}
	return nil
}

// printInfo renders the per-layer structure of a model and its lowered
// execution plan.
func printInfo(model *nn.Model) {
	stats := model.Net.ComputeStats()
	fmt.Printf("circuit %s, L=%d, merged=%v, %d gates, %d flip-flop feedbacks\n",
		model.CircuitName, model.L, model.Merged, model.GateCount, len(model.Feedback))
	fmt.Printf("%d layers, %d neurons, %d connections, mean sparsity %.5f, %.2f MB on disk\n",
		stats.Layers, stats.Neurons, stats.Connections, stats.MeanSparsity,
		float64(model.MemoryBytes())/1e6)
	p, perr := plan.Compile(model)
	if perr == nil {
		fmt.Printf("execution plan: %d arena rows for %d units (%.1f%% of the flat layout)\n",
			p.ArenaUnits, model.Net.TotalUnits,
			100*float64(p.ArenaUnits)/float64(model.Net.TotalUnits))
	}
	fmt.Println()
	fmt.Printf("%-6s %-10s %10s %10s %12s %10s  %s\n", "layer", "kind", "rows", "cols", "nnz", "sparsity", "row kernels")
	for i := range model.Net.Layers {
		l := &model.Net.Layers[i]
		kind := "linear"
		if l.Threshold {
			kind = "threshold"
		}
		mix := map[string]int{}
		if perr == nil {
			for _, g := range p.Layers[i].Groups {
				mix[g.Kind.String()] = len(g.Rows)
			}
		}
		fmt.Printf("%-6d %-10s %10d %10d %12d %10.5f  %s\n",
			i, kind, l.W.Rows, l.W.Cols, l.W.NNZ(), l.W.Sparsity(), mixString(mix))
	}
	fmt.Printf("\ninputs:")
	for _, p := range model.Inputs {
		fmt.Printf(" %s[%d]", p.Name, len(p.Units))
	}
	fmt.Printf("\noutputs:")
	for _, p := range model.Outputs {
		fmt.Printf(" %s[%d]", p.Name, len(p.Units))
	}
	fmt.Println()
}

// formatWords renders a width-bit value, LSB-first words, as the 0x
// literal testbench.FormatBits writes: one hex digit per 4 bits.
func formatWords(v []uint64, width int) string {
	top := len(v) - 1
	s := fmt.Sprintf("0x%0*x", max(1, (width-64*top+3)/4), v[top])
	for k := top - 1; k >= 0; k-- {
		s += fmt.Sprintf("%016x", v[k])
	}
	return s
}
