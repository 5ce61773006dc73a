package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"c2nn/internal/compile"
	"c2nn/internal/exec/backend"
	"c2nn/internal/fault"
	"c2nn/internal/obs"
	"c2nn/internal/testbench"
)

// runFault implements the "c2nn fault" subcommand: enumerate and
// collapse the stuck-at/SEU fault universe of a circuit, grade it
// against a testbench script and/or random stimuli on the batched
// engine (lane 0 golden, one fault class per remaining lane) and print
// the coverage report.
func runFault(args []string) error {
	fs := flag.NewFlagSet("c2nn fault", flag.ExitOnError)
	var (
		lutSize  = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		top      = fs.String("top", "", "top module name for Verilog files (default: inferred)")
		circuit  = fs.String("circuit", "", "grade a built-in benchmark circuit")
		tbPath   = fs.String("tb", "", "testbench script supplying the detection stimuli (the circuit is inferred from the file name unless -circuit or files are given)")
		random   = fs.Int("random", 0, "append N random-stimulus cycles (default 256 when no -tb is given)")
		backendF = fs.String("backend", "bitpacked", "execution substrate: float32, int32 or bitpacked")
		batch    = fs.Int("batch", 64, "engine batch size (lane 0 is golden, the rest carry faults)")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		seed     = fs.Int64("seed", 1, "random-stimulus seed")
		seuAt    = fs.Int("seu-forward", -1, "forward pass on which SEU faults flip (default 1)")
		limit    = fs.Int("limit", 0, "grade at most N fault classes, sampled evenly across the universe (0 = all)")
		flowmap  = fs.Bool("flowmap", false, "use the FlowMap depth-optimal mapper instead of priority cuts")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		outPath  = fs.String("o", "", "write the report to this file instead of stdout")
		traceOut = fs.String("trace", "", "write a Chrome trace of the grading run to this file (chrome://tracing)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn fault [-circuit name | file.v ...] [-tb script.tb] [-random n] [-backend b] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var script *testbench.Script
	if *tbPath != "" {
		src, err := os.ReadFile(*tbPath)
		if err != nil {
			return err
		}
		script, err = testbench.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", *tbPath, err)
		}
	}
	if script == nil && *random == 0 {
		*random = 256
	}

	// Injection needs the model and the mapped graph it was built from.
	src, err := target(*circuit, *tbPath, *top, fs.Args())
	if err != nil {
		return err
	}
	cres, err := compile.Run(src, compile.Options{L: *lutSize, FlowMap: *flowmap}, nil)
	if err != nil {
		return err
	}
	model, g := cres.Model, cres.Mapping.Graph

	u := fault.Enumerate(g, len(model.Feedback))
	if *limit > 0 {
		// Demote everything but an evenly strided sample: a stride
		// (rather than a prefix) spreads the sample across the whole
		// circuit, so the coverage estimate stays representative.
		sims := u.SimulatedClasses()
		if len(sims) > *limit {
			stride := (len(sims) + *limit - 1) / *limit
			for pos, ci := range sims {
				if pos%stride != 0 {
					u.Classes[ci].Status = fault.Dominated
				}
			}
		}
	}
	prec, err := backend.ParseKind(*backendF)
	if err != nil {
		return err
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.New()
	}
	rep, err := fault.Grade(model, g, u, script, fault.Config{
		Precision:    prec,
		Batch:        *batch,
		Workers:      *workers,
		SEUForward:   *seuAt,
		RandomCycles: *random,
		Seed:         *seed,
		Trace:        tr,
	})
	if err != nil {
		return err
	}
	if tr != nil {
		if err := writeFileWith(*traceOut, tr.WriteChromeTrace); err != nil {
			return err
		}
	}

	w := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	_, err = fmt.Fprint(w, rep)
	return err
}
