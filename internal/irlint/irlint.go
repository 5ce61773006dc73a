// Package irlint is the cross-stage IR verifier: a static-analysis
// pass over every intermediate representation of the compilation
// pipeline — Verilog AST, bit-blasted netlist, and-inverter graph, LUT
// computation graph, multi-linear polynomials, the threshold network
// and its lowered execution plan — with collect-all-violations
// semantics.
//
// The rule implementations live next to the IRs they inspect (each IR
// package has a lint.go declaring its rules against the registry in
// internal/irlint/diag); this package is the table saying which rules
// run at which stage boundary of the compile driver (internal/compile),
// and a Checker that observes a compile through it — the static
// counterpart of the dynamic simengine.Verify equivalence check
// (paper §IV-A).
package irlint

import (
	"fmt"

	"c2nn/internal/aig"
	"c2nn/internal/compile"
	"c2nn/internal/equiv"
	"c2nn/internal/exec/analyze"
	"c2nn/internal/exec/plan"
	"c2nn/internal/fault"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/poly"
)

// PolyCheckMaxVars bounds the exhaustive polynomial re-evaluation: for
// every LUT with at most this many inputs, the verifier recomputes the
// multi-linear polynomial and evaluates it on all 2^k assignments
// against the truth table. 8 keeps the check at ≤ 256 evaluations per
// LUT while covering every LUT the default L = 7 mapping produces.
const PolyCheckMaxVars = 8

// polys re-derives the multi-linear polynomial of every LUT with at
// most PolyCheckMaxVars inputs, lints its structure and re-evaluates it
// exhaustively against the truth table (rule PL004) — a per-node static
// proof of the polynomial conversion.
func polys(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
	g := r.Mapping.Graph
	var ds []diag.Diagnostic
	for i := range g.LUTs {
		t := g.LUTs[i].Table
		if t.NumVars > PolyCheckMaxVars {
			continue
		}
		loc := fmt.Sprintf("lut %d", i)
		p := poly.FromTable(t)
		ds = append(ds, p.Lint(loc)...)
		ds = append(ds, poly.LintAgainstTable(p, t, loc)...)
	}
	return ds, nil
}

// planLint lowers the model to an execution plan and lints it,
// verifying kernel selection, threshold fusion and the activation-arena
// liveness analysis against the model.
func planLint(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
	p, err := plan.Compile(r.Model)
	if err != nil {
		return nil, fmt.Errorf("irlint: lowering to plan: %w", err)
	}
	return p.Lint(), nil
}

// analyzeLint lowers the model and runs the static plan analysis (rules
// PA001–PA008): cone-of-influence clustering, the static cost model,
// the arena aliasing/liveness proof and degenerate-row classification.
func analyzeLint(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
	p, err := plan.Compile(r.Model)
	if err != nil {
		return nil, fmt.Errorf("irlint: lowering to plan: %w", err)
	}
	res, err := analyze.Run(p, analyze.Options{})
	if err != nil {
		return nil, fmt.Errorf("irlint: plan analysis: %w", err)
	}
	return res.Diags, nil
}

// faults enumerates and collapses the stuck-at/SEU fault universe of
// the mapped graph, compiles the full overlay (every simulated class on
// its own lane) against a reuse-free plan, and lints both — the static
// verification of the fault-injection subsystem (rules FT001–FT004).
func faults(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
	model, g := r.Model, r.Mapping.Graph
	u := fault.Enumerate(g, len(model.Feedback))
	ds := u.Lint(g)

	fp, err := plan.CompileOpts(model, plan.Options{DisableArenaReuse: true})
	if err != nil {
		return nil, fmt.Errorf("irlint: lowering fault plan: %w", err)
	}
	ov, err := fault.NewOverlay(model, g, -1)
	if err != nil {
		return nil, fmt.Errorf("irlint: compiling fault overlay: %w", err)
	}
	lane := 1
	for _, ci := range u.SimulatedClasses() {
		if err := ov.AddFault(u.Classes[ci].Rep, lane); err != nil {
			return nil, fmt.Errorf("irlint: compiling fault overlay: %w", err)
		}
		lane++
	}
	return append(ds, ov.Lint(fp, lane)...), nil
}

// equivLint runs the SAT equivalence stage (rules EQ001–EQ008): pairing
// invariants first, then the three stage miters and the per-LUT
// table→polynomial→threshold chain, converting the certificate into
// diagnostics. Broken pairing skips the proof — the miters cannot share
// primary inputs without it.
func equivLint(c *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
	if c.NoEquiv {
		return nil, nil
	}
	if ds := equiv.LintPairing(r.Netlist, c.aig, c.aigOuts, r.Mapping); len(ds) > 0 {
		return ds, nil
	}
	res, err := equiv.Prove(r.Netlist, c.aig, c.aigOuts, r.Mapping, r.Model, equiv.Options{})
	if err != nil {
		return nil, fmt.Errorf("irlint: equivalence proof: %w", err)
	}
	return res.Lint(), nil
}

// checks is the stage → lint table: which rule families run at which
// boundary of the compile driver, in order. Every entry inspects the
// very objects the driver hands to its next stage.
var checks = []struct {
	at    compile.Stage
	stage diag.Stage
	lint  func(c *Checker, r *compile.Result) ([]diag.Diagnostic, error)
}{
	{compile.StageDesign, diag.StageAST, func(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
		return r.Design.Lint(), nil
	}},
	// Elaboration validates the netlist itself on exit, so netlist
	// errors normally surface as a failed compile, not as diagnostics.
	{compile.StageNetlist, diag.StageNetlist, func(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
		return r.Netlist.Lint(), nil
	}},
	{compile.StageAIG, diag.StageAIG, func(c *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
		c.aig, c.aigOuts = r.AIG, r.AIGOuts // kept for the EQ stage
		return r.AIG.Lint(r.AIGOuts), nil
	}},
	{compile.StageMapping, diag.StageLUT, func(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
		return r.Mapping.Graph.Lint(), nil
	}},
	{compile.StageMapping, diag.StagePoly, polys},
	{compile.StageModel, diag.StageNN, func(_ *Checker, r *compile.Result) ([]diag.Diagnostic, error) {
		return r.Model.Lint(), nil
	}},
	{compile.StageModel, diag.StagePlan, planLint},
	{compile.StageModel, diag.StageAnalyze, analyzeLint},
	{compile.StageModel, diag.StageFault, faults},
	{compile.StageModel, diag.StageEquiv, equivLint},
}

// Checker observes a compile through its After method, linting every
// IR at its stage boundary into Report.
type Checker struct {
	// Report collects every diagnostic found so far, in stage order.
	Report diag.Report
	// NoEquiv disables the SAT equivalence stage (rules EQ001–EQ008),
	// leaving only the per-stage structural lints.
	NoEquiv bool
	// Trace, when non-nil, records one "lint" span per rule family with
	// its stage and diagnostic count.
	Trace *obs.Trace

	aig     *aig.AIG
	aigOuts []aig.Lit
}

// After is the compile.Run observer: it runs the checks of the given
// boundary and stops the compile at the first rule family that reports
// an Error-severity diagnostic.
func (c *Checker) After(at compile.Stage, r *compile.Result) error {
	for _, ck := range checks {
		if ck.at != at {
			continue
		}
		lsp := c.Trace.Begin("lint").SetStr("stage", string(ck.stage))
		ds, err := ck.lint(c, r)
		lsp.SetInt("diagnostics", int64(len(ds))).End()
		if err != nil {
			return err
		}
		c.Report.Add(ds...)
		if c.Report.HasErrors() {
			return compile.Stop
		}
	}
	return nil
}

// Check compiles src through the driver with a Checker observing, and
// returns the compiled model together with the sorted report. When a
// stage reports Error-severity diagnostics, compilation stops at that
// boundary and the model is nil. A non-nil error means a stage failed
// outright (parse or elaboration failure, say), distinct from the
// report carrying diagnostics.
func Check(src compile.Source, opts compile.Options, noEquiv bool) (*nn.Model, *diag.Report, error) {
	c := &Checker{NoEquiv: noEquiv, Trace: opts.Trace}
	res, err := compile.Run(src, opts, c.After)
	c.Report.Sort()
	if err != nil || c.Report.HasErrors() {
		return nil, &c.Report, err
	}
	return res.Model, &c.Report, nil
}
