// Package c2nn compiles digital circuits into computationally equivalent
// neural networks for high-throughput RTL simulation, reproducing
// "Neural Network Compiler for Parallel High-Throughput Simulation of
// Digital Circuits" (IPDPS 2023).
//
// The pipeline (paper Fig. 1):
//
//	Verilog ─▶ netlist ─▶ AIG ─▶ K-LUT graph ─▶ multi-linear
//	polynomials ─▶ threshold network ─▶ batched parallel engine
//
// This package is the public facade over the implementation packages:
//
//	internal/verilog    HDL frontend (lexer, parser)
//	internal/synth      elaboration and bit-blasting
//	internal/netlist    gate-level IR
//	internal/gatesim    baseline cycle simulators (the Verilator stand-in)
//	internal/aig        and-inverter graphs
//	internal/lutmap     K-feasible-cut technology mapping (priority cuts, FlowMap)
//	internal/truthtab   packed truth tables
//	internal/poly       multi-linear polynomials (Algorithm 1 + DNF baseline)
//	internal/nn         network construction, the layer-merge pass, model files
//	internal/tensor     sparse CSR float32/int32 and bit-packed uint64 kernels
//	internal/exec/plan  model lowering: threshold fusion, activation-arena
//	                    liveness, per-row kernel selection
//	internal/exec/backend  the execution driver over its float32 / int32 /
//	                    bit-packed substrates
//	internal/simengine  batched execution engine (facade over plan + backend)
//	internal/obs        observability: spans, metrics, Chrome-trace export
//	internal/circuits   the six Table I benchmark designs
//	internal/compile    the one compile driver: walks the Fig. 1 stages
//	                    for every caller, and the "which circuit" selector
//	internal/bench      experiment harness (Table I, Fig. 4, Fig. 6, ablations)
//	internal/vcd        VCD waveform writer
//	internal/testbench  stimulus-script format and runner
//	internal/fault      stuck-at/SEU fault injection and coverage grading
//	internal/sat        CDCL SAT solver (miter discharge)
//	internal/equiv      formal equivalence checker: stage miters + per-LUT
//	                    proof chain (docs/EQUIV.md)
package c2nn

import (
	"fmt"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/equiv"
	"c2nn/internal/fault"
	"c2nn/internal/gatesim"
	"c2nn/internal/irlint"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// Re-exported core types.
type (
	// Model is a compiled circuit: the neural network plus port and
	// flip-flop metadata.
	Model = nn.Model
	// Engine executes a model over stimulus batches.
	Engine = simengine.Engine
	// EngineOptions configures batch size, workers and precision.
	EngineOptions = simengine.Options
	// Precision selects the engine's execution substrate.
	Precision = simengine.Precision
	// Netlist is the gate-level intermediate representation.
	Netlist = netlist.Netlist
	// Circuit is a built-in benchmark design.
	Circuit = circuits.Circuit
	// LintReport is the collect-all diagnostics report of the irlint
	// cross-stage IR verifier.
	LintReport = diag.Report
	// Diagnostic is one irlint rule violation.
	Diagnostic = diag.Diagnostic
	// LintRule describes one registered irlint rule.
	LintRule = diag.Rule
	// EquivResult is the certificate of the formal equivalence checker:
	// per-stage SAT miter verdicts plus the per-LUT proof chain.
	EquivResult = equiv.Result
	// EquivOptions configures the equivalence checker (stage selection,
	// sweep and solver budgets, tracing).
	EquivOptions = equiv.Options
	// Counterexample is a replayable miter counterexample; render it
	// with Script for the .tb testbench format.
	Counterexample = equiv.Counterexample
	// Trace is the observability sink: hierarchical spans over compile
	// stages and engine kernels, plus counters, gauges and histograms.
	// Export recorded data with WriteChromeTrace (chrome://tracing /
	// Perfetto) or WriteMetricsJSON / WriteMetricsText. See
	// docs/OBSERVABILITY.md.
	Trace = obs.Trace
)

// NewTrace creates an observability sink. Pass it via Options.Trace to
// record per-stage compile spans and via EngineOptions.Trace to record
// per-layer kernel spans and engine metrics. A nil *Trace disables all
// recording at the cost of a single branch per hook.
func NewTrace() *Trace { return obs.New() }

// Engine precisions: the paper's float32 baseline, exact integer
// kernels, and the bit-packed substrate carrying 64 stimulus lanes per
// uint64 word. All three are bit-identical on compiled circuits.
const (
	Float32   = simengine.Float32
	Int32     = simengine.Int32
	BitPacked = simengine.BitPacked
)

// Options configures CompileVerilog.
type Options struct {
	// Top selects the top module; empty infers the unique uninstantiated
	// module.
	Top string
	// L is the LUT size hyperparameter (default 7). Larger L gives
	// shallower networks with exponentially more connections (§III-B1).
	L int
	// NoMerge keeps the canonical Fig. 2 network. Only this facade still
	// merges layers (§III-D, Fig. 5) by default: the frozen benchmark/
	// times the zero Options (ROADMAP item 1).
	NoMerge bool
	// CoalesceWide, when > 0, merges chains of pure AND/OR LUTs into
	// wide LUTs of up to this many inputs after mapping — the §V
	// "polynomial libraries for known functions" improvement. Wide ANDs
	// and ORs keep trivially sparse polynomials at any width.
	CoalesceWide int
	// Check runs the irlint cross-stage verifier at every stage
	// boundary during compilation and fails on the first stage that
	// reports an Error-severity diagnostic.
	Check bool
	// Trace, when non-nil, records one span per compile stage (parse,
	// elaborate, aig, cuts, tables, normalize, poly, network, plan, …)
	// with IR-size attributes. Nil disables recording.
	Trace *obs.Trace
}

// source selects a built-in circuit; an explicit Options.Top overrides
// the circuit's own top module.
func (o Options) source(name string) (compile.Source, error) {
	src, err := compile.Builtin(name)
	if o.Top != "" {
		src.Top = o.Top
	}
	return src, err
}

// driver translates the facade options into the compile driver's.
func (o Options) driver() compile.Options {
	return compile.Options{
		L:            o.L,
		CoalesceWide: o.CoalesceWide,
		Merge:        !o.NoMerge,
		Trace:        o.Trace,
	}
}

// CompileVerilog compiles Verilog sources (path -> contents) into a
// neural-network model.
func CompileVerilog(sources map[string]string, opts Options) (*Model, error) {
	return compileSource(compile.Source{Files: sources, Top: opts.Top}, opts)
}

// CompileBenchmark compiles one of the built-in Table I circuits
// ("AES", "SHA", "SPI", "UART", "DMA", "RISC-V interface").
func CompileBenchmark(name string, opts Options) (*Model, error) {
	src, err := opts.source(name)
	if err != nil {
		return nil, err
	}
	return compileSource(src, opts)
}

func compileSource(src compile.Source, opts Options) (*Model, error) {
	if opts.Check {
		model, report, err := irlint.Check(src, opts.driver(), false)
		if err != nil {
			return nil, err
		}
		if report.HasErrors() {
			return nil, fmt.Errorf("lint: %s (%d errors)", report.FirstError(), report.Counts().Errors)
		}
		return model, nil
	}
	res, err := compile.Run(src, opts.driver(), nil)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

// runBuiltin compiles a built-in circuit at LUT size l, keeping every
// IR of the compile.
func runBuiltin(name string, l int) (*compile.Result, error) {
	src, err := compile.Builtin(name)
	if err != nil {
		return nil, err
	}
	return compile.Run(src, compile.Options{L: l}, nil)
}

// NewEngine creates a batched simulation engine for a model.
func NewEngine(m *Model, opts EngineOptions) (*Engine, error) {
	return simengine.New(m, opts)
}

// LoadModel reads a .c2nn model file.
func LoadModel(path string) (*Model, error) { return nn.LoadFile(path) }

// Verify compiles the given benchmark circuit at LUT size l and checks
// the neural network against the gate-level reference on random stimuli
// (the paper's §IV-A correctness check). It returns the number of output
// comparisons performed.
func Verify(name string, l, cycles, batch int, seed int64) (int64, error) {
	cres, err := runBuiltin(name, l)
	if err != nil {
		return 0, err
	}
	prog, err := gatesim.Compile(cres.Netlist)
	if err != nil {
		return 0, err
	}
	res, err := simengine.Verify(cres.Model, prog, cycles, EngineOptions{Batch: batch}, seed)
	if err != nil {
		return 0, err
	}
	return res.Compared, nil
}

// Benchmarks returns the built-in benchmark circuits.
func Benchmarks() []Circuit { return circuits.All() }

// FaultReport is the coverage report of a fault-grading run.
type FaultReport = fault.Report

// FaultCoverage compiles a built-in benchmark circuit at LUT size l,
// enumerates and collapses its stuck-at/SEU fault universe, and grades
// it with random stimuli on the bit-packed engine: lane 0 is the golden
// machine, every other lane carries one fault class, so each uint64
// word simulates 63 faulty machines in parallel. See docs/FAULT.md and
// the "c2nn fault" subcommand for script-driven grading.
func FaultCoverage(name string, l, cycles, batch int, seed int64) (*FaultReport, error) {
	res, err := runBuiltin(name, l)
	if err != nil {
		return nil, err
	}
	g := res.Mapping.Graph
	u := fault.Enumerate(g, len(res.Model.Feedback))
	return fault.Grade(res.Model, g, u, nil, fault.Config{
		Precision:    BitPacked,
		Batch:        batch,
		RandomCycles: cycles,
		Seed:         seed,
	})
}

// LintVerilog runs the cross-stage IR verifier over a source-level
// compile: the Verilog AST is linted first, then the design is
// elaborated and every later IR (netlist, AIG, LUT graph, polynomials,
// network) is linted at its stage boundary. Compilation stops at the
// first stage with Error-severity diagnostics; the report always holds
// everything found up to that point. A non-nil error means a stage
// failed outright (parse or elaboration failure), distinct from the
// report carrying diagnostics.
func LintVerilog(sources map[string]string, order []string, opts Options) (*LintReport, error) {
	_, report, err := irlint.Check(compile.Source{Files: sources, Order: order, Top: opts.Top}, opts.driver(), false)
	return report, err
}

// LintBenchmark runs the cross-stage IR verifier over one of the
// built-in Table I circuits, starting from its generated Verilog
// sources so the AST stage is covered too.
func LintBenchmark(name string, opts Options) (*LintReport, error) {
	src, err := opts.source(name)
	if err != nil {
		return nil, err
	}
	_, report, err := irlint.Check(src, opts.driver(), false)
	return report, err
}

// LintRules returns every registered lint rule, sorted by ID — the
// rule catalogue documented in docs/LINT.md.
func LintRules() []LintRule { return diag.Rules() }

// ProveVerilog runs the formal equivalence checker over one compile of
// the given sources: the netlist, AIG and mapped LUT graph are proven
// pairwise equivalent by SAT miters, and (unless opts disables the
// chain) every LUT's truth table is proven equal to its polynomial and
// threshold realisation. See docs/EQUIV.md.
func ProveVerilog(sources map[string]string, copts Options, opts EquivOptions) (*EquivResult, error) {
	return equiv.ProveSource(compile.Source{Files: sources, Top: copts.Top}, copts.driver(), opts)
}

// ProveBenchmark runs the formal equivalence checker over one of the
// built-in Table I circuits.
func ProveBenchmark(name string, copts Options, opts EquivOptions) (*EquivResult, error) {
	src, err := copts.source(name)
	if err != nil {
		return nil, err
	}
	return equiv.ProveSource(src, copts.driver(), opts)
}
