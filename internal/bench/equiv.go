package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/equiv"
	"c2nn/internal/obs"
)

// EquivRow is one circuit × L equivalence-proof measurement: CNF build
// and solve cost of the unified three-side sweep plus the per-LUT chain
// verdict. Times split where the checker spends them — encoding
// (Tseitin), the equivalence sweep (candidate-pair solves), and the
// final output miters.
type EquivRow struct {
	Circuit string `json:"circuit"`
	L       int    `json:"l"`

	Vars      int   `json:"vars"`
	Clauses   int   `json:"clauses"`
	Gates     int   `json:"tseitin_gates"`
	Solves    int64 `json:"solves"`
	Conflicts int64 `json:"conflicts"`

	CNFMs   float64 `json:"cnf_ms"`
	SweepMs float64 `json:"sweep_ms"`
	SolveMs float64 `json:"solve_ms"`
	TotalMs float64 `json:"total_ms"`

	ChainLUTs int   `json:"chain_luts"`
	ChainRows int64 `json:"chain_rows"`

	Equivalent bool `json:"equivalent"`
}

// EquivConfig tunes the equivalence benchmark.
type EquivConfig struct {
	Ls []int
	// Trace, when non-nil, records the checker's equiv.cnf /
	// equiv.solve / equiv.chain spans.
	Trace *obs.Trace
}

// DefaultEquivConfig proves at the paper's three LUT sizes.
func DefaultEquivConfig() EquivConfig {
	return EquivConfig{Ls: []int{4, 7, 11}}
}

// RunEquiv times the formal equivalence checker over the named circuits
// (nil = all benchmark circuits) at each configured LUT size. Every row
// is also an assertion: a non-equivalent verdict is a compiler or
// checker bug and fails the run.
func RunEquiv(names []string, cfg EquivConfig, progress io.Writer) ([]EquivRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	var list []circuits.Circuit
	if names == nil {
		list = circuits.All()
	} else {
		for _, n := range names {
			c, err := circuits.ByName(n)
			if err != nil {
				return nil, err
			}
			list = append(list, c)
		}
	}
	var rows []EquivRow
	for _, c := range list {
		for _, l := range cfg.Ls {
			logf("equiv: %s L=%d", c.Name, l)
			start := time.Now()
			// The merged network build is minutes-scale at L=11; the
			// chain proof is equally valid on the unmerged model.
			res, err := equiv.ProveSource(compile.FromCircuit(c), compile.Options{L: l, NoMerge: l > 7}, equiv.Options{Trace: cfg.Trace})
			if err != nil {
				return nil, fmt.Errorf("%s L=%d: %w", c.Name, l, err)
			}
			row := EquivRow{
				Circuit: c.Name, L: l,
				Vars: res.Sweep.Vars, Clauses: res.Sweep.Clauses, Gates: res.Sweep.Gates,
				Solves: res.Sweep.Solves, Conflicts: res.Sweep.Conflicts,
				CNFMs: res.Sweep.CNFMillis, SweepMs: res.Sweep.SweepMs,
				TotalMs:    float64(time.Since(start).Microseconds()) / 1000,
				Equivalent: res.Equivalent,
			}
			for _, m := range res.Miters {
				row.SolveMs += m.SolveMillis
			}
			if res.Chain != nil {
				row.ChainLUTs = res.Chain.LUTs
				row.ChainRows = res.Chain.RowsChecked
			}
			rows = append(rows, row)
			if !res.Equivalent {
				return rows, fmt.Errorf("%s L=%d: equivalence not proven", c.Name, l)
			}
		}
	}
	return rows, nil
}

// FormatEquiv renders the rows as an aligned text table.
func FormatEquiv(rows []EquivRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %9s %9s %9s %10s %9s %9s %9s %10s\n",
		"circuit", "L", "vars", "clauses", "solves", "conflicts", "cnf_ms", "sweep_ms", "solve_ms", "total_ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %3d %9d %9d %9d %10d %9.1f %9.1f %9.1f %10.1f\n",
			r.Circuit, r.L, r.Vars, r.Clauses, r.Solves, r.Conflicts,
			r.CNFMs, r.SweepMs, r.SolveMs, r.TotalMs)
	}
	return b.String()
}

// WriteEquivJSON emits the rows as indented JSON — the BENCH_equiv.json
// CI artifact.
func WriteEquivJSON(w io.Writer, rows []EquivRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
