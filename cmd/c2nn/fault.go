package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"c2nn/internal/circuits"
	"c2nn/internal/exec/backend"
	"c2nn/internal/fault"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/synth"
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

	model, g, err := faultTarget(*circuit, *top, *tbPath, *lutSize, *flowmap, fs.Args())
	if err != nil {
		return err
	}

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

// faultTarget compiles the circuit to grade, keeping the mapped graph
// the model was built from (injection needs both). The circuit comes
// from -circuit, Verilog files, or — as a convenience — the testbench
// file name ("uart_smoke.tb" selects the UART benchmark).
func faultTarget(circuit, top, tbPath string, lutSize int, useFlowmap bool, files []string) (*nn.Model, *lutmap.Graph, error) {
	if circuit == "" && len(files) == 0 {
		if tbPath == "" {
			return nil, nil, fmt.Errorf("no input: pass Verilog files, -circuit or -tb (see c2nn fault -h)")
		}
		circuit = inferCircuit(tbPath)
		if circuit == "" {
			return nil, nil, fmt.Errorf("cannot infer a built-in circuit from %q; pass -circuit or Verilog files", tbPath)
		}
	}

	alg := lutmap.PriorityCuts
	if useFlowmap {
		alg = lutmap.FlowMap
	}
	var nl *netlist.Netlist
	switch {
	case circuit != "":
		c, err := circuits.ByName(circuit)
		if err != nil {
			return nil, nil, err
		}
		nl, err = c.Elaborate()
		if err != nil {
			return nil, nil, err
		}
	default:
		sources := make(map[string]string, len(files))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, nil, err
			}
			sources[f] = string(data)
		}
		var err error
		nl, err = synth.ElaborateSource(top, sources)
		if err != nil {
			return nil, nil, err
		}
	}

	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: lutSize, Algorithm: alg})
	if err != nil {
		return nil, nil, err
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{Merge: true, L: lutSize})
	if err != nil {
		return nil, nil, err
	}
	return model, m.Graph, nil
}

// inferCircuit matches a testbench file name against the built-in
// circuit names, case-insensitively: "uart_smoke.tb" → "UART".
func inferCircuit(tbPath string) string {
	base := strings.ToLower(filepath.Base(tbPath))
	for _, c := range circuits.All() {
		key := strings.ToLower(strings.Fields(c.Name)[0])
		if strings.HasPrefix(base, key) {
			return c.Name
		}
	}
	return ""
}
