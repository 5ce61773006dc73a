package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"c2nn/internal/fault"
	"c2nn/internal/obs"
)

// runFault implements the "c2nn fault" subcommand: enumerate and
// collapse the stuck-at/SEU fault universe of a circuit, grade it
// against a testbench script and/or random stimuli on the batched
// engine (lane 0 golden, one fault class per remaining lane) and print
// the coverage report.
func runFault(args []string) error {
	fs := flag.NewFlagSet("c2nn fault", flag.ExitOnError)
	s := sessionFlags(fs, "[-top module] [-random n] [-limit n] [-json]", "bitpacked", 64) // lane 0 is golden, the rest carry faults
	var (
		top      = fs.String("top", "", "top module name for Verilog files (default: inferred)")
		random   = fs.Int("random", 0, "append N random-stimulus cycles (default 256 when no -tb is given)")
		seuAt    = fs.Int("seu-forward", -1, "forward pass on which SEU faults flip (default 1)")
		limit    = fs.Int("limit", 0, "grade at most N fault classes, sampled evenly across the universe (0 = all)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		outPath  = fs.String("o", "", "write the report to this file instead of stdout")
		traceOut = fs.String("trace", "", "write a Chrome trace of the grading run to this file (chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := s.open(*top, fs.Args(), nil); err != nil {
		return err
	}
	if s.res == nil {
		return fmt.Errorf("-model carries no LUT graph to inject faults into: pass -circuit or Verilog files")
	}
	if s.script == nil && *random == 0 {
		*random = 256
	}
	// Injection needs the model and the mapped graph it was built from.
	model, g := s.model, s.res.Mapping.Graph

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
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.New()
	}
	rep, err := fault.Grade(model, g, u, s.script, fault.Config{
		Precision:    s.opts.Precision,
		Batch:        s.opts.Batch,
		Workers:      s.opts.Workers,
		SEUForward:   *seuAt,
		RandomCycles: *random,
		Seed:         *s.seed,
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
