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
//	-merge       apply the depth-halving layer merge (§III-D, Fig. 5)
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
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"c2nn/internal/aig"
	"c2nn/internal/compile"
	"c2nn/internal/irlint"
	"c2nn/internal/irlint/diag"
)

// printLintSummary prints the -check diagnostic counts per stage (the
// -stats companion line for the verifier).
func printLintSummary(report *diag.Report) {
	byStage := report.StageCounts()
	total := report.Counts()
	fmt.Printf("lint: %d errors, %d warnings, %d infos", total.Errors, total.Warnings, total.Infos)
	for _, s := range diag.Stages() {
		if c, ok := byStage[s]; ok {
			fmt.Printf("; %s %d/%d/%d", s, c.Errors, c.Warnings, c.Infos)
		}
	}
	fmt.Println()
}

// writeAIG writes the AIG of the combinational core in AIGER format
// (ASCII for .aag paths, binary otherwise).
func writeAIG(g *aig.AIG, outs []aig.Lit, path string) error {
	write := g.WriteAIGBinary
	if strings.HasSuffix(path, ".aag") {
		write = g.WriteAAG
	}
	return writeFileWith(path, func(w io.Writer) error { return write(w, outs) })
}

// target resolves the single-target selector shared by the
// subcommands: -circuit name, Verilog files, or — as a convenience — a
// testbench whose file name starts with a built-in circuit's
// ("uart_smoke.tb" selects UART).
func target(circuit, tbPath, top string, files []string) (compile.Source, error) {
	if circuit == "" && len(files) == 0 && tbPath != "" {
		return compile.ForTestbench(tbPath)
	}
	ts, err := compile.Targets(false, circuit, files, top)
	if err != nil {
		return compile.Source{}, err
	}
	return ts[0], nil
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
		merge   = fs.Bool("merge", false, "apply the depth-halving layer merge of Fig. 5 (default: the explicit hidden/linear alternation)")
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
	src, err := target(*circuit, "", *top, fs.Args())
	if err != nil {
		return err
	}
	opts := compile.Options{L: *lutSize, Merge: *merge}
	return compileTo(src, opts, *out, *stats, *check, *aigOut)
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

	targets, err := compile.Targets(*all, *circuit, fs.Args(), *top)
	if err != nil {
		return err
	}
	opts := compile.Options{L: *lutSize}
	type result struct {
		Circuit string          `json:"circuit"`
		Report  json.RawMessage `json:"report"`
	}
	var results []result
	failed := false
	for _, t := range targets {
		_, report, err := irlint.Check(t, opts, *noEquiv)
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		if report.HasErrors() {
			failed = true
		}
		if *jsonOut {
			var buf bytes.Buffer
			if err := report.WriteJSON(&buf); err != nil {
				return err
			}
			results = append(results, result{Circuit: t.Name, Report: buf.Bytes()})
			continue
		}
		c := report.Counts()
		fmt.Printf("%s (L=%d): %d errors, %d warnings, %d infos\n", t.Name, *lutSize, c.Errors, c.Warnings, c.Infos)
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

// printStageStats prints the -stats line of the IR a stage produced.
func printStageStats(st compile.Stage, r *compile.Result) {
	switch st {
	case compile.StageNetlist:
		fmt.Print(r.Netlist.ComputeStats())
	case compile.StageMapping:
		ms := r.Mapping.Graph.ComputeStats()
		fmt.Printf("mapping: %d LUTs, depth %d, mean arity %.2f (K=%d)\n",
			ms.LUTs, ms.Depth, ms.MeanIns, ms.K)
	case compile.StageModel:
		ns := r.Model.Net.ComputeStats()
		fmt.Printf("network: %d layers, %d neurons, %d connections, mean sparsity %.5f\n",
			ns.Layers, ns.Neurons, ns.Connections, ns.MeanSparsity)
	}
}

// compileTo runs the driver on src and writes the model file. -check
// observes the compile with the same irlint.Checker as "c2nn lint";
// -stats and -aig read the IRs at their stage boundaries.
func compileTo(src compile.Source, opts compile.Options, out string, stats, check bool, aigOut string) error {
	start := time.Now()
	chk := &irlint.Checker{}
	res, err := compile.Run(src, opts, func(st compile.Stage, r *compile.Result) error {
		if check {
			if err := chk.After(st, r); err != nil {
				return err
			}
		}
		if st == compile.StageAIG && aigOut != "" {
			if err := writeAIG(r.AIG, r.AIGOuts, aigOut); err != nil {
				return err
			}
			fmt.Printf("wrote AIGER to %s\n", aigOut)
		}
		if stats {
			printStageStats(st, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if check {
		chk.Report.Sort()
		fmt.Fprint(os.Stderr, &chk.Report)
		if stats {
			printLintSummary(&chk.Report)
		}
		if chk.Report.HasErrors() {
			return fmt.Errorf("check: %d error diagnostics; first: %s",
				chk.Report.Counts().Errors, chk.Report.FirstError())
		}
	}

	nl := res.Netlist
	if out == "" {
		out = nl.Name + ".c2nn"
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	n, err := res.Model.SaveFile(out)
	if err != nil {
		return err
	}
	fmt.Printf("compiled %q (%d gates) at L=%d in %s -> %s (%.2f MB)\n",
		nl.Name, nl.GateCount(), res.Model.L, time.Since(start).Round(time.Millisecond),
		out, float64(n)/1e6)
	return nil
}
