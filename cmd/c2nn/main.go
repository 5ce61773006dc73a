// Command c2nn is the compiler CLI: it reads Verilog sources (or a
// built-in benchmark circuit) and produces a .c2nn neural-network model
// file, mirroring the paper's Fig. 1 pipeline end to end.
//
// Usage:
//
//	c2nn -o design.c2nn -L 7 [-top name] file1.v file2.v ...
//	c2nn -o aes.c2nn -L 11 -circuit AES
//	c2nn run -model design.c2nn -cycles 1000 -batch 256
//	c2nn run -circuit UART -L 7 -verify -cycles 64
//	c2nn lint -all
//	c2nn lint -circuit AES -L 4 -json
//	c2nn analyze -circuit UART -L 4 -top 10 -clusters
//	c2nn analyze -all -json
//	c2nn fault -tb testbenches/uart_smoke.tb -backend bitpacked -json
//	c2nn fault -circuit SPI -random 64 -limit 2000
//	c2nn profile -circuit UART -backend bitpacked -trace trace.json
//	c2nn watch -tb testbenches/uart_smoke.tb -serve :9090
//
// Flags:
//
//	-L n         LUT size hyperparameter (default 7)
//	-top name    top module (default: inferred)
//	-o path      output model file (default: <top>.c2nn)
//	-circuit n   compile a built-in benchmark circuit instead of files
//	-no-merge    disable the depth-halving layer merge (§III-D)
//	-flowmap     use the FlowMap depth-optimal mapper
//	-stats       print netlist / mapping / network statistics
//	-check       run the irlint IR verifier at every stage boundary
//
// The run subcommand simulates a compiled model (or checks it against
// the gate-level simulator with -verify); see "c2nn run -h". The lint
// subcommand runs the cross-stage verifier without writing a model;
// see "c2nn lint -h". The fault subcommand grades stuck-at/SEU
// fault coverage on the batched engine; see "c2nn fault -h" and
// docs/FAULT.md. The profile subcommand compiles and runs a circuit
// with the observability sink attached, exporting Chrome traces and
// metrics; the watch subcommand monitors a looping replay live, with a
// Prometheus /metrics endpoint, a sampled time series and a flight
// recorder; see "c2nn profile -h", "c2nn watch -h" and
// docs/OBSERVABILITY.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"c2nn/internal/aig"
	"c2nn/internal/circuits"
	"c2nn/internal/irlint"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/synth"
	"c2nn/internal/verilog"
)

// lintStage folds one stage's diagnostics into the running -check
// report, printing warnings and infos as they appear; Error-severity
// diagnostics abort compilation at the stage boundary.
func lintStage(total, stage *diag.Report) error {
	total.Add(stage.Diags...)
	if stage.HasErrors() {
		stage.Sort()
		fmt.Fprint(os.Stderr, stage)
		c := stage.Counts()
		return fmt.Errorf("check: %d error diagnostics at the %s stage boundary",
			c.Errors, stage.Diags[0].Stage)
	}
	for _, d := range stage.Diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return nil
}

// printLintSummary prints the -check diagnostic counts per stage (the
// -stats companion line for the verifier).
func printLintSummary(report *diag.Report) {
	byStage := report.StageCounts()
	stages := make([]string, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, string(s))
	}
	sort.Strings(stages)
	total := report.Counts()
	fmt.Printf("lint: %d errors, %d warnings, %d infos", total.Errors, total.Warnings, total.Infos)
	for _, s := range stages {
		c := byStage[diag.Stage(s)]
		fmt.Printf("; %s %d/%d/%d", s, c.Errors, c.Warnings, c.Infos)
	}
	fmt.Println()
}

// writeAIG lowers the flip-flop-cut combinational core to an AIG and
// writes it in AIGER format (ASCII for .aag paths, binary otherwise).
func writeAIG(nl *netlist.Netlist, path string) error {
	g, lits, err := aig.FromNetlist(nl)
	if err != nil {
		return err
	}
	outs := make([]aig.Lit, 0, len(nl.CombOutputs()))
	for _, net := range nl.CombOutputs() {
		outs = append(outs, lits[net])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".aag") {
		return g.WriteAAG(f, outs)
	}
	return g.WriteAIGBinary(f, outs)
}

// commands maps each subcommand to its implementation; a first
// argument that names none of them starts an ordinary compile.
var commands = map[string]func([]string) error{
	"analyze": runAnalyze,
	"equiv":   runEquiv,
	"fault":   runFault,
	"lint":    runLint,
	"profile": runProfile,
	"run":     runRun,
	"watch":   runWatch,
}

func main() {
	name, cmd, args := "c2nn", runCompile, os.Args[1:]
	if len(args) > 0 {
		if sub, ok := commands[args[0]]; ok {
			name, cmd, args = "c2nn "+args[0], sub, args[1:]
		}
	}
	if err := cmd(args); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// runCompile is the default command: Verilog files (or a built-in
// circuit) in, a .c2nn model file out.
func runCompile(args []string) error {
	fs := flag.NewFlagSet("c2nn", flag.ExitOnError)
	var (
		lutSize = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		top     = fs.String("top", "", "top module name (default: inferred)")
		out     = fs.String("o", "", "output model path (default: <top>.c2nn)")
		circuit = fs.String("circuit", "", "compile a built-in benchmark circuit (AES, SHA, SPI, UART, DMA, RISC-V interface)")
		noMerge = fs.Bool("no-merge", false, "disable layer merging (keeps the explicit hidden/linear alternation)")
		flowmap = fs.Bool("flowmap", false, "use the FlowMap depth-optimal mapper instead of priority cuts")
		stats   = fs.Bool("stats", false, "print pipeline statistics")
		check   = fs.Bool("check", false, "run the irlint IR verifier at every stage boundary; fail on error diagnostics")
		aigOut  = fs.String("aig", "", "also write the combinational core as an AIGER file (.aag = ASCII, else binary)")
	)
	fs.Usage = func() {
		subs := make([]string, 0, len(commands))
		for name := range commands {
			subs = append(subs, name)
		}
		sort.Strings(subs)
		fmt.Fprintf(fs.Output(), "usage: c2nn [flags] file.v ...\n       c2nn {%s} -h\n", strings.Join(subs, "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	return compile(*lutSize, *top, *out, *circuit, !*noMerge, *flowmap, *stats, *check, *aigOut, fs.Args())
}

// runLint implements the "c2nn lint" subcommand: it runs the
// cross-stage IR verifier over built-in circuits or Verilog files and
// reports every diagnostic, without writing a model. The exit status is
// nonzero only when Error-severity diagnostics are found (warnings and
// infos are reported but do not fail the run).
func runLint(args []string) error {
	fs := flag.NewFlagSet("c2nn lint", flag.ExitOnError)
	var (
		lutSize = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		top     = fs.String("top", "", "top module name (default: inferred)")
		circuit = fs.String("circuit", "", "lint a built-in benchmark circuit")
		all     = fs.Bool("all", false, "lint every built-in benchmark circuit")
		flowmap = fs.Bool("flowmap", false, "use the FlowMap depth-optimal mapper instead of priority cuts")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		rules   = fs.Bool("rules", false, "list every registered rule and exit")
		noEquiv = fs.Bool("noequiv", false, "skip the SAT equivalence stage (rules EQ001-EQ008)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn lint [-all | -circuit name | file.v ...] [-L n] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *rules {
		for _, r := range diag.Rules() {
			fmt.Printf("%s  %-8s %-7s  %s\n", r.ID, r.Stage, r.Severity, r.Summary)
		}
		return nil
	}

	type target struct {
		name    string
		sources map[string]string
		order   []string
		top     string
	}
	var targets []target
	switch {
	case *all:
		for _, c := range circuits.All() {
			targets = append(targets, target{name: c.Name, sources: c.Generate(), top: c.Top})
		}
	case *circuit != "":
		c, err := circuits.ByName(*circuit)
		if err != nil {
			return err
		}
		targets = append(targets, target{name: c.Name, sources: c.Generate(), top: c.Top})
	case fs.NArg() > 0:
		sources := make(map[string]string, fs.NArg())
		var order []string
		for _, f := range fs.Args() {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			sources[f] = string(data)
			order = append(order, f)
		}
		targets = append(targets, target{name: strings.Join(fs.Args(), " "), sources: sources, order: order, top: *top})
	default:
		return fmt.Errorf("no input: pass Verilog files, -circuit or -all (see c2nn lint -h)")
	}

	opts := irlint.Options{L: *lutSize, FlowMap: *flowmap, NoEquiv: *noEquiv}
	type result struct {
		Circuit string          `json:"circuit"`
		Report  json.RawMessage `json:"report"`
	}
	var results []result
	failed := false
	for _, t := range targets {
		_, report, err := irlint.CheckSources(t.sources, t.order, t.top, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if report.HasErrors() {
			failed = true
		}
		if *jsonOut {
			var buf bytes.Buffer
			if err := report.WriteJSON(&buf); err != nil {
				return err
			}
			results = append(results, result{Circuit: t.name, Report: buf.Bytes()})
			continue
		}
		c := report.Counts()
		fmt.Printf("%s (L=%d): %d errors, %d warnings, %d infos\n", t.name, *lutSize, c.Errors, c.Warnings, c.Infos)
		for _, d := range report.Diags {
			fmt.Printf("  %s\n", d)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(results) == 1 {
			if err := enc.Encode(results[0].Report); err != nil {
				return err
			}
		} else if err := enc.Encode(results); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("error diagnostics found")
	}
	return nil
}

func compile(lutSize int, top, out, circuit string, merge, useFlowmap, stats, check bool, aigOut string, files []string) error {
	start := time.Now()
	report := &diag.Report{}

	var nl *netlist.Netlist
	switch {
	case circuit != "":
		c, err := circuits.ByName(circuit)
		if err != nil {
			return err
		}
		nl, err = c.Elaborate()
		if err != nil {
			return err
		}
	case len(files) > 0:
		sources := make(map[string]string, len(files))
		var order []string
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			sources[f] = string(data)
			order = append(order, f)
		}
		design, err := verilog.BuildDesign(sources, order)
		if err != nil {
			return err
		}
		if check {
			if err := lintStage(report, irlint.Design(design)); err != nil {
				return err
			}
		}
		nl, err = synth.Elaborate(design, synth.Options{Top: top, Optimize: true})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("no input: pass Verilog files or -circuit (see -h)")
	}

	if check {
		if err := lintStage(report, irlint.Netlist(nl)); err != nil {
			return err
		}
	}
	if stats {
		fmt.Print(nl.ComputeStats())
	}

	if aigOut != "" {
		if err := writeAIG(nl, aigOut); err != nil {
			return err
		}
		fmt.Printf("wrote AIGER to %s\n", aigOut)
	}

	if check {
		g, lits, err := aig.FromNetlist(nl)
		if err != nil {
			return err
		}
		outs := make([]aig.Lit, 0, len(nl.CombOutputs()))
		for _, net := range nl.CombOutputs() {
			outs = append(outs, lits[net])
		}
		if err := lintStage(report, irlint.AIG(g, outs)); err != nil {
			return err
		}
	}

	alg := lutmap.PriorityCuts
	if useFlowmap {
		alg = lutmap.FlowMap
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: lutSize, Algorithm: alg})
	if err != nil {
		return err
	}
	if check {
		if err := lintStage(report, irlint.Graph(m.Graph)); err != nil {
			return err
		}
		if err := lintStage(report, irlint.Polys(m.Graph)); err != nil {
			return err
		}
	}
	if stats {
		ms := m.Graph.ComputeStats()
		fmt.Printf("mapping: %d LUTs, depth %d, mean arity %.2f (K=%d)\n",
			ms.LUTs, ms.Depth, ms.MeanIns, ms.K)
	}

	model, err := nn.Build(nl, m, nn.BuildOptions{Merge: merge, L: lutSize})
	if err != nil {
		return err
	}
	if check {
		if err := lintStage(report, irlint.Model(model)); err != nil {
			return err
		}
	}
	if stats {
		ns := model.Net.ComputeStats()
		fmt.Printf("network: %d layers, %d neurons, %d connections, mean sparsity %.5f\n",
			ns.Layers, ns.Neurons, ns.Connections, ns.MeanSparsity)
	}
	if check && stats {
		printLintSummary(report)
	}

	if out == "" {
		out = nl.Name + ".c2nn"
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	n, err := model.SaveFile(out)
	if err != nil {
		return err
	}
	fmt.Printf("compiled %q (%d gates) at L=%d in %s -> %s (%.2f MB)\n",
		nl.Name, nl.GateCount(), lutSize, time.Since(start).Round(time.Millisecond),
		out, float64(n)/1e6)
	return nil
}
