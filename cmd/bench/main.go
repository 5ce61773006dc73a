// Command bench walks the suite table of internal/bench: every table and
// figure of the paper's evaluation plus the per-subsystem measurements,
// printed as aligned text tables and recorded as uniform rows in one
// JSON ledger (docs/BENCH.md).
//
// Usage:
//
//	bench table1                         # Table I: all circuits, L = 3,7,11
//	bench table1 -circuits UART,SPI -L 3,5,7
//	bench fig4 fig6 ablations
//	bench backends -min-ms 50 -out BENCH.json
//	bench all                            # every suite
//	bench gate BENCH.json [BASELINE.json]
//
// A flag overrides a suite's own default only when it is given; -out
// adds the suites run to the ledger already in the file, so runs at
// different configurations accumulate into one ledger for the gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"c2nn/internal/bench"
	"c2nn/internal/obs"
)

// options is the one flag set every suite shares.
type options struct {
	fs                        *flag.FlagSet
	circuits, ls, out, trace  *string
	batch, minMs, verifyCycle *int
	quiet                     *bool
}

func newOptions() *options {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench <suite>...|all [flags]\n       bench gate LEDGER.json [BASELINE.json]\nsuites:")
		for _, s := range bench.Suites {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", s.Name, s.Title)
		}
		fmt.Fprintln(os.Stderr, "flags (unset = each suite's own default):")
		fs.PrintDefaults()
	}
	return &options{
		fs:          fs,
		circuits:    fs.String("circuits", "", "comma-separated circuit names"),
		ls:          fs.String("L", "", "comma-separated LUT sizes"),
		batch:       fs.Int("batch", 0, "NN stimulus batch size"),
		minMs:       fs.Int("min-ms", 0, "per-measurement time floor in milliseconds"),
		verifyCycle: fs.Int("verify-cycles", 0, "table1: equivalence-check cycles per row (0 skips)"),
		out:         fs.String("out", "", "add the rows to the JSON ledger in this file"),
		trace:       fs.String("trace", "", "record a Chrome trace of the run to this file (chrome://tracing)"),
		quiet:       fs.Bool("q", false, "suppress progress lines"),
	}
}

// env is the suite's default configuration with exactly the flags that
// were given on the command line laid over it.
func (o *options) env(s *bench.Suite, all bool) (*bench.Env, error) {
	env, err := s.Env(all)
	o.fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		switch f.Name {
		case "circuits":
			env.Circuits, err = bench.Circuits(splitList(*o.circuits))
		case "L":
			env.Ls = nil
			for _, v := range splitList(*o.ls) {
				var l int
				if l, err = strconv.Atoi(v); err != nil {
					return
				}
				env.Ls = append(env.Ls, l)
			}
		case "batch":
			env.Batch = *o.batch
		case "min-ms":
			env.MinMeasure = time.Duration(*o.minMs) * time.Millisecond
		case "verify-cycles":
			env.VerifyCycles = *o.verifyCycle
		}
	})
	return env, err
}

func splitList(s string) []string {
	list := strings.Split(s, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	return list
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "gate" {
		gate(args[1:])
		return
	}
	var names []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		names, args = append(names, args[0]), args[1:]
	}
	o := newOptions()
	o.fs.Parse(args)
	all := len(names) == 1 && names[0] == "all"
	if all {
		names = nil
		for _, s := range bench.Suites {
			names = append(names, s.Name)
		}
	}
	if len(names) == 0 || o.fs.NArg() > 0 {
		o.fs.Usage()
		os.Exit(2)
	}

	var tr *obs.Trace
	if *o.trace != "" {
		tr = obs.New()
	}
	var ledger *bench.Ledger
	if *o.out != "" {
		var err error
		if ledger, err = bench.OpenLedger(*o.out); err != nil {
			fatal(err)
		}
	}
	for _, name := range names {
		s, err := bench.Lookup(name)
		if err != nil {
			fatal(err)
		}
		env, err := o.env(s, all)
		if err != nil {
			fatal(err)
		}
		env.Trace = tr
		if !*o.quiet {
			env.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
		}
		rows, err := s.Run(env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if ledger != nil {
			ledger.Add(name, rows)
		}
		fmt.Printf("\n=== %s ===\n%s", s.Title, bench.Render(s, rows))
	}
	if ledger != nil {
		if err := ledger.WriteFile(*o.out); err != nil {
			fatal(err)
		}
	}
	if tr != nil {
		f, err := os.Create(*o.trace)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// gate checks a ledger's rows against every suite's gates, and against
// the baseline ledger where a gate is a regression bound.
func gate(args []string) {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: bench gate LEDGER.json [BASELINE.json]")
		os.Exit(2)
	}
	ledger, err := bench.ReadLedger(args[0])
	if err != nil {
		fatal(err)
	}
	var base *bench.Ledger
	if len(args) == 2 {
		if base, err = bench.ReadLedger(args[1]); err != nil {
			fatal(err)
		}
	}
	if !bench.Check(ledger, base, os.Stdout) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
