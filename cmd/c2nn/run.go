package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"c2nn"
	"c2nn/internal/exec/backend"
	"c2nn/internal/exec/plan"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
	"c2nn/internal/vcd"
)

// runRun implements the "c2nn run" subcommand: it runs a compiled .c2nn
// model (or a freshly compiled built-in circuit) — batched multi-cycle
// simulation with random or scripted stimuli — or, with -verify,
// compares the NN engine output-for-output against the levelized
// gate-level reference on identical random stimuli (the paper's §IV-A
// verification).
func runRun(args []string) error {
	fs := flag.NewFlagSet("c2nn run", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "", "compiled .c2nn model file")
		circuit   = fs.String("circuit", "", "built-in circuit to compile and run")
		lutSize   = fs.Int("L", 7, "LUT size when compiling a built-in circuit")
		cycles    = fs.Int("cycles", 256, "clock cycles to simulate")
		batch     = fs.Int("batch", 256, "stimuli per batch (stimulus parallelism)")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines (structural parallelism)")
		verify    = fs.Bool("verify", false, "compare NN outputs against the gate-level simulator")
		backendF  = fs.String("backend", "float32", "execution substrate: float32, int32 or bitpacked")
		seed      = fs.Int64("seed", 1, "stimulus seed")
		vcdPath   = fs.String("vcd", "", "dump lane-0 port waveforms to this VCD file")
		tbPath    = fs.String("tb", "", "run a testbench script (set/step/expect directives) instead of random stimuli")
		info      = fs.Bool("info", false, "print the per-layer structure of the model and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn run [-model file.c2nn | -circuit name [-L n]] [-verify | -tb script.tb | -info] [-backend b] [-cycles n] [-batch n]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	prec, err := backend.ParseKind(*backendF)
	if err != nil {
		return err
	}

	if *verify {
		if *circuit == "" {
			return fmt.Errorf("-verify needs -circuit (the gate-level reference is compiled from source)")
		}
		lanes := min(*batch, 16)
		compared, err := c2nn.Verify(*circuit, *lutSize, *cycles, lanes, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("VERIFIED: %d cycles x %d lanes, %d comparisons, all identical\n", *cycles, lanes, compared)
		return nil
	}

	var model *nn.Model
	switch {
	case *circuit != "":
		start := time.Now()
		model, err = c2nn.CompileBenchmark(*circuit, c2nn.Options{L: *lutSize})
		if err != nil {
			return err
		}
		fmt.Printf("compiled %s at L=%d in %s (%d gates, %d layers)\n",
			model.CircuitName, *lutSize, time.Since(start).Round(time.Millisecond),
			model.GateCount, len(model.Net.Layers))
	case *modelPath != "":
		model, err = c2nn.LoadModel(*modelPath)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %q: circuit %s, L=%d, %d layers, %d gates\n",
			*modelPath, model.CircuitName, model.L, len(model.Net.Layers), model.GateCount)
	default:
		return fmt.Errorf("pass -model or -circuit (see c2nn run -h)")
	}

	if *info {
		printInfo(model)
		return nil
	}

	eng, err := simengine.New(model, simengine.Options{Batch: *batch, Workers: *workers, Precision: prec})
	if err != nil {
		return err
	}
	defer eng.Close()

	if *tbPath != "" {
		src, err := os.ReadFile(*tbPath)
		if err != nil {
			return err
		}
		script, err := testbench.Parse(string(src))
		if err != nil {
			return err
		}
		res, err := script.Run(eng)
		if err != nil {
			return fmt.Errorf("%s: %w", *tbPath, err)
		}
		fmt.Printf("testbench PASSED: %d steps, %d checks, %d stimulus loads\n",
			res.Steps, res.Checks, res.Applied)
		return nil
	}

	var tracer *vcd.PortTracer
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
		tracer = vcd.NewPortTracer(vcd.NewWriter(f, "1ns", model.CircuitName), widths)
		defer tracer.Close()
	}

	rng := rand.New(rand.NewSource(*seed))
	vals := make([]uint64, *batch)
	sample := make(map[string]uint64)
	start := time.Now()
	for cyc := 0; cyc < *cycles; cyc++ {
		for _, in := range model.Inputs {
			for b := range vals {
				v := rng.Uint64()
				if w := len(in.Units); w < 64 {
					v &= 1<<uint(w) - 1
				}
				vals[b] = v
			}
			if err := eng.SetInput(in.Name, vals); err != nil {
				return err
			}
			if tracer != nil {
				sample[in.Name] = vals[0]
			}
		}
		if tracer != nil {
			eng.Forward()
			for _, out := range model.Outputs {
				v, err := outputLane0(eng, out.Name, len(out.Units))
				if err != nil {
					return err
				}
				sample[out.Name] = v
			}
			tracer.Sample(uint64(cyc), sample)
			eng.LatchFeedback()
			continue
		}
		eng.Step()
	}
	elapsed := time.Since(start)
	gcs := simengine.Throughput(model.GateCount, *cycles, *batch, elapsed)
	fmt.Printf("simulated %d cycles x %d lanes in %s\n", *cycles, *batch, elapsed.Round(time.Microsecond))
	fmt.Printf("throughput: %.3E gates*cycles/s\n", gcs)

	eng.Forward()
	for _, out := range model.Outputs {
		s, err := outputLane0Hex(eng, out.Name, len(out.Units))
		if err != nil {
			return err
		}
		fmt.Printf("  %s[lane0] = %s\n", out.Name, s)
	}
	return nil
}

// outputLane0 reads lane 0 of an output port as a uint64; ports wider
// than 64 bits (which GetOutput refuses) are read bitwise and truncated
// to their low 64 bits — the most a VCD sample word can carry.
func outputLane0(eng *simengine.Engine, name string, width int) (uint64, error) {
	if width <= 64 {
		v, err := eng.GetOutput(name)
		if err != nil {
			return 0, err
		}
		return v[0], nil
	}
	bits, err := eng.GetOutputBits(name, 0)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 64 && i < len(bits); i++ {
		if bits[i] {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// outputLane0Hex renders lane 0 of an output port at full width.
func outputLane0Hex(eng *simengine.Engine, name string, width int) (string, error) {
	if width <= 64 {
		v, err := eng.GetOutput(name)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%#x", v[0]), nil
	}
	bits, err := eng.GetOutputBits(name, 0)
	if err != nil {
		return "", err
	}
	nibbles := (len(bits) + 3) / 4
	s := make([]byte, nibbles)
	for i, b := range bits {
		if b {
			s[nibbles-1-i/4] |= 1 << uint(i%4)
		}
	}
	const hexdigits = "0123456789abcdef"
	for i := range s {
		s[i] = hexdigits[s[i]]
	}
	return "0x" + string(s), nil
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
