package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"c2nn/internal/compile"
	"c2nn/internal/equiv"
)

// equivJob is one (circuit, L) proof of the -all matrix.
type equivJob struct {
	src compile.Source
	l   int
}

// equivOutcome pairs a job with its certificate for ordered reporting.
type equivOutcome struct {
	Circuit string        `json:"circuit"`
	L       int           `json:"l"`
	Result  *equiv.Result `json:"result,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// runEquiv implements the "c2nn equiv" subcommand: it proves each
// compile stage equivalent by SAT miter and verifies the per-LUT
// table→polynomial→threshold chain. The exit status is nonzero when any
// miter is SAT or inconclusive, any chain row differs, or a proof
// fails outright. -all fans the (circuit × L) matrix out over worker
// goroutines — the proofs are independent, and the matrix wall-clock is
// dominated by a single hard instance (RISC-V at L=11).
func runEquiv(args []string) error {
	fs := flag.NewFlagSet("c2nn equiv", flag.ExitOnError)
	var (
		lutSizes = fs.String("l", "7", "comma-separated LUT sizes to prove (e.g. 4,7,11)")
		top      = fs.String("top", "", "top module name (default: inferred)")
		circuit  = fs.String("circuit", "", "prove a built-in benchmark circuit")
		all      = fs.Bool("all", false, "prove every built-in benchmark circuit")
		stage    = fs.String("stage", "", "restrict to one stage miter: netlist-aig, aig-lut or netlist-lut (default: all three + chain)")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		cexOut   = fs.String("cex", "", "write the first counterexample as a .tb testbench to this path")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel proofs for -all")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn equiv [-all | -circuit name | file.v ...] [-l 4,7,11] [-stage s] [-json] [-cex out.tb]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ls []int
	for _, s := range strings.Split(*lutSizes, ",") {
		l, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || l < 2 {
			return fmt.Errorf("bad LUT size %q", s)
		}
		ls = append(ls, l)
	}
	var eopts equiv.Options
	if *stage != "" {
		sp := equiv.StagePair(*stage)
		found := false
		for _, known := range equiv.AllStages() {
			if sp == known {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown stage %q (want netlist-aig, aig-lut or netlist-lut)", *stage)
		}
		eopts.Stages = []equiv.StagePair{sp}
		eopts.SkipChain = true
	}

	targets, err := compile.Targets(*all, *circuit, fs.Args(), *top)
	if err != nil {
		return err
	}
	var jobs []equivJob
	for _, t := range targets {
		for _, l := range ls {
			jobs = append(jobs, equivJob{src: t, l: l})
		}
	}

	outcomes := make([]equivOutcome, len(jobs))
	nw := max(1, *workers)
	var wg sync.WaitGroup
	sem := make(chan struct{}, nw)
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job equivJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[i] = proveOne(job, eopts)
		}(i, job)
	}
	wg.Wait()

	failed := false
	var firstCex *equiv.Counterexample
	var firstCexJob equivJob
	for i, oc := range outcomes {
		if oc.Error != "" {
			failed = true
		} else if !oc.Result.Equivalent {
			failed = true
			if firstCex == nil {
				if cx := oc.Result.FirstCex(); cx != nil {
					firstCex, firstCexJob = cx, jobs[i]
				}
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outcomes); err != nil {
			return err
		}
	} else {
		for _, oc := range outcomes {
			if oc.Error != "" {
				fmt.Printf("%-18s L=%-2d ERROR %s\n", oc.Circuit, oc.L, oc.Error)
				continue
			}
			r := oc.Result
			verdict := "EQUIVALENT"
			if !r.Equivalent {
				verdict = "NOT EQUIVALENT"
			}
			fmt.Printf("%-18s L=%-2d %-15s %8.1f ms  vars=%d clauses=%d conflicts=%d\n",
				oc.Circuit, oc.L, verdict, r.TotalMillis, r.Sweep.Vars, r.Sweep.Clauses, r.Sweep.Conflicts)
			for _, mr := range r.Miters {
				if mr.Status != equiv.Equivalent {
					fmt.Printf("    %-12s %s\n", mr.Stage, mr.Status)
				}
			}
			if r.Chain != nil && !r.Chain.OK() {
				fmt.Printf("    chain: %d issues (first: %s)\n", len(r.Chain.Issues), r.Chain.Issues[0])
			}
		}
	}

	if *cexOut != "" && firstCex != nil {
		res, err := compile.Run(firstCexJob.src, compile.Options{}, compile.StopAfter(compile.StageNetlist))
		if err != nil {
			return err
		}
		src, err := firstCex.Script(res.Netlist)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*cexOut, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "counterexample written to %s\n", *cexOut)
	}
	if failed {
		return fmt.Errorf("equivalence not proven")
	}
	return nil
}

// proveOne compiles and proves a single job, capturing failures as
// data so one broken proof doesn't hide the rest of the matrix.
func proveOne(job equivJob, eopts equiv.Options) equivOutcome {
	oc := equivOutcome{Circuit: job.src.Name, L: job.l}
	res, err := equiv.ProveSource(job.src, compile.Options{L: job.l}, eopts)
	if err != nil {
		oc.Error = err.Error()
		return oc
	}
	oc.Result = res
	return oc
}
