// Package diag defines the diagnostics vocabulary of the irlint
// cross-stage IR verifier: severities, pipeline stages, the unified
// Diagnostic record, the rule registry, and the Report container with
// collect-all semantics, pretty-printing and machine-readable JSON.
//
// The package is a leaf (standard library only) so that every IR
// package — netlist, aig, lutmap, poly, nn, verilog — can emit
// diagnostics without creating an import cycle with internal/irlint,
// which imports all of them to orchestrate the pipeline-wide check.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity uint8

// Severities, ordered most severe first.
const (
	// Error marks a violated invariant that breaks the computational
	// equivalence guarantee or would crash a downstream stage.
	Error Severity = iota
	// Warning marks suspicious but functionally harmless structure
	// (dead logic, redundant nodes, wasted storage).
	Warning
	// Info marks observations useful when auditing a compile (unused
	// input bits, degenerate ports) that occur in legitimate designs.
	Info
)

var severityNames = [...]string{Error: "error", Warning: "warning", Info: "info"}

// String returns the lower-case severity name.
func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range severityNames {
		if n == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("diag: unknown severity %q", name)
}

// Stage identifies the intermediate representation a diagnostic was
// raised on, in pipeline order (paper Fig. 1).
type Stage string

// Pipeline stages.
const (
	StageAST     Stage = "ast"     // Verilog abstract syntax tree
	StageNetlist Stage = "netlist" // bit-blasted gate-level netlist
	StageAIG     Stage = "aig"     // and-inverter graph
	StageLUT     Stage = "lut"     // K-LUT computation graph
	StagePoly    Stage = "poly"    // multi-linear polynomials
	StageNN      Stage = "nn"      // threshold neural network
	StagePlan    Stage = "plan"    // lowered execution plan
	StageAnalyze Stage = "analyze" // static plan analysis (cones, cost, aliasing)
	StageFault   Stage = "fault"   // fault universe + lane overlays
	StageEquiv   Stage = "equiv"   // cross-stage equivalence proofs
)

// stageOrder gives the pipeline position of each stage for sorting.
var stageOrder = map[Stage]int{
	StageAST: 0, StageNetlist: 1, StageAIG: 2, StageLUT: 3, StagePoly: 4, StageNN: 5,
	StagePlan: 6, StageAnalyze: 7, StageFault: 8, StageEquiv: 9,
}

// Stages returns all stages in pipeline order.
func Stages() []Stage {
	return []Stage{StageAST, StageNetlist, StageAIG, StageLUT, StagePoly, StageNN, StagePlan, StageAnalyze, StageFault, StageEquiv}
}

// Diagnostic is one rule violation found by the verifier.
type Diagnostic struct {
	// Rule is the registered rule ID, e.g. "NL002".
	Rule string `json:"rule"`
	// Severity is the severity declared by the rule.
	Severity Severity `json:"severity"`
	// Stage is the IR the violation was found on.
	Stage Stage `json:"stage"`
	// Loc locates the violation within the IR: a net name, a gate,
	// LUT or layer index, a module name. Free-form, may be empty.
	Loc string `json:"loc,omitempty"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`
}

// String renders the diagnostic in the canonical single-line form
// "stage: severity: [RULE] loc: msg".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s: [%s]", d.Stage, d.Severity, d.Rule)
	if d.Loc != "" {
		b.WriteString(" ")
		b.WriteString(d.Loc)
		b.WriteString(":")
	}
	b.WriteString(" ")
	b.WriteString(d.Msg)
	return b.String()
}

// Rule describes one registered lint rule. Rules are declared by the IR
// packages as package-level variables through Register, giving the
// verifier a complete self-describing catalogue (docs/LINT.md mirrors
// it).
type Rule struct {
	// ID is the stable rule identifier: a two-letter stage prefix and a
	// three-digit number, e.g. "NL002".
	ID string `json:"id"`
	// Stage is the IR the rule inspects.
	Stage Stage `json:"stage"`
	// Severity of every diagnostic the rule emits.
	Severity Severity `json:"severity"`
	// Summary is a one-line description of the invariant.
	Summary string `json:"summary"`
}

var registry = map[string]Rule{}

// Register records a rule in the global registry and returns it, so IR
// packages can declare rules as initialised package variables:
//
//	var RuleMultiDriven = diag.Register(diag.Rule{ID: "NL002", ...})
//
// Register panics on a duplicate or malformed ID; registration happens
// only from package init, so the registry is read-only afterwards.
func Register(r Rule) Rule {
	if r.ID == "" || r.Summary == "" {
		panic(fmt.Sprintf("diag: rule %+v missing ID or summary", r))
	}
	if _, ok := stageOrder[r.Stage]; !ok {
		panic(fmt.Sprintf("diag: rule %s has unknown stage %q", r.ID, r.Stage))
	}
	if _, dup := registry[r.ID]; dup {
		panic(fmt.Sprintf("diag: duplicate rule ID %s", r.ID))
	}
	registry[r.ID] = r
	return r
}

// Rules returns every registered rule sorted by stage order then ID.
func Rules() []Rule {
	out := make([]Rule, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := stageOrder[out[i].Stage], stageOrder[out[j].Stage]; a != b {
			return a < b
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// New builds a diagnostic for the rule at the given location.
func (r Rule) New(loc, format string, args ...any) Diagnostic {
	return Diagnostic{
		Rule:     r.ID,
		Severity: r.Severity,
		Stage:    r.Stage,
		Loc:      loc,
		Msg:      fmt.Sprintf(format, args...),
	}
}

// Counts tallies diagnostics by severity.
type Counts struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// Total returns the number of diagnostics counted.
func (c Counts) Total() int { return c.Errors + c.Warnings + c.Infos }

func (c *Counts) add(s Severity) {
	switch s {
	case Error:
		c.Errors++
	case Warning:
		c.Warnings++
	default:
		c.Infos++
	}
}

// Report accumulates diagnostics across stages with collect-all
// semantics: lint passes append every violation they find rather than
// stopping at the first.
type Report struct {
	Diags []Diagnostic `json:"diagnostics"`
}

// Add appends diagnostics to the report.
func (r *Report) Add(ds ...Diagnostic) { r.Diags = append(r.Diags, ds...) }

// Counts tallies the report by severity.
func (r *Report) Counts() Counts {
	var c Counts
	for _, d := range r.Diags {
		c.add(d.Severity)
	}
	return c
}

// StageCounts tallies the report by stage.
func (r *Report) StageCounts() map[Stage]Counts {
	out := make(map[Stage]Counts)
	for _, d := range r.Diags {
		c := out[d.Stage]
		c.add(d.Severity)
		out[d.Stage] = c
	}
	return out
}

// HasErrors reports whether any Error-severity diagnostic was recorded.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// FirstError returns the first Error-severity diagnostic in pipeline
// order, or nil. It is the bridge to the legacy single-error Validate
// signatures.
func (r *Report) FirstError() *Diagnostic {
	for i := range r.Diags {
		if r.Diags[i].Severity == Error {
			return &r.Diags[i]
		}
	}
	return nil
}

// Sort orders diagnostics by pipeline stage, then severity, then rule
// ID, then location, then message — a total order, so two reports with
// the same diagnostics always render identically no matter what order
// the producing passes emitted them in (golden-file and -json CI
// comparisons depend on this).
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if sa, sb := stageOrder[a.Stage], stageOrder[b.Stage]; sa != sb {
			return sa < sb
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		return a.Msg < b.Msg
	})
}

// String renders the report one diagnostic per line followed by a
// summary line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	c := r.Counts()
	fmt.Fprintf(&b, "%d error(s), %d warning(s), %d info(s)\n", c.Errors, c.Warnings, c.Infos)
	return b.String()
}

// jsonReport is the machine-readable envelope written by WriteJSON.
type jsonReport struct {
	Diagnostics []Diagnostic     `json:"diagnostics"`
	Counts      Counts           `json:"counts"`
	ByStage     map[Stage]Counts `json:"by_stage"`
}

// WriteJSON writes the report as an indented JSON object with per-stage
// and total counts — the CI interchange format.
func (r *Report) WriteJSON(w io.Writer) error {
	env := jsonReport{Diagnostics: r.Diags, Counts: r.Counts(), ByStage: r.StageCounts()}
	if env.Diagnostics == nil {
		env.Diagnostics = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
