package bench

import (
	"fmt"
	"io"
	"os"
	"strconv"
)

// Gate is one pass/fail condition on a suite's rows: every row of
// Metric (restricted to Variant when set) must satisfy "value Op Bound",
// and at least MinRows such rows must exist.
type Gate struct {
	Metric  string
	Variant string // "" = every variant
	Op      string // "==", "<", "<=", ">" or ">="
	Bound   float64
	MinRows int
	// VsBaseline scales Bound by the value of the baseline ledger's row
	// with the same key, making the gate a regression bound. Rows the
	// baseline lacks are a NOTE (circuit sets may grow), as is a run
	// without a baseline.
	VsBaseline bool
	// BoundEnv names an environment variable that overrides Bound — for
	// the one bound shared CI runners need slack on.
	BoundEnv string
}

func (g Gate) holds(v, bound float64) bool {
	switch g.Op {
	case "==":
		return v == bound
	case "<":
		return v < bound
	case "<=":
		return v <= bound
	case ">":
		return v > bound
	case ">=":
		return v >= bound
	}
	panic("bench: gate with unknown op " + g.Op) // the suite table is static
}

// Check evaluates the gates of every suite the ledger ran, printing one
// OK / FAIL / NOTE line per row checked, and reports whether all held.
// A suite that was run but produced no rows fails, as does an empty
// ledger. base may be nil.
func Check(l, base *Ledger, w io.Writer) bool {
	ok := len(l.Suites) > 0
	if !ok {
		fmt.Fprintln(w, "FAIL  ledger lists no suites")
	}
	baseline := map[Row]float64{}
	if base != nil {
		for _, r := range base.Rows {
			baseline[r.key()] = r.Value
		}
	}
	for _, name := range l.Suites {
		s, err := Lookup(name)
		if err != nil {
			fmt.Fprintf(w, "FAIL  %v\n", err)
			ok = false
			continue
		}
		total := 0
		for _, r := range l.Rows {
			if r.Suite == name {
				total++
			}
		}
		if total == 0 {
			fmt.Fprintf(w, "FAIL  %s: no rows\n", name)
			ok = false
		}
		for _, g := range s.Gates {
			if g.BoundEnv != "" {
				if v, err := strconv.ParseFloat(os.Getenv(g.BoundEnv), 64); err == nil {
					g.Bound = v
				}
			}
			what := g.Metric
			if g.Variant != "" {
				what += " on " + g.Variant
			}
			if g.VsBaseline && base == nil {
				fmt.Fprintf(w, "NOTE  %s: %s not checked, no baseline ledger given\n", name, what)
				continue
			}
			matched := 0
			for _, r := range l.Rows {
				if r.Suite != name || r.Metric != g.Metric || (g.Variant != "" && r.Variant != g.Variant) {
					continue
				}
				matched++
				tag := fmt.Sprintf("%s %s L=%d %s", name, r.Circuit, r.L, g.Metric)
				if r.Variant != "" {
					tag += " on " + r.Variant
				}
				bound, limit := g.Bound, fmt.Sprintf("%s %g", g.Op, g.Bound)
				if g.VsBaseline {
					b, found := baseline[r.key()]
					if !found {
						fmt.Fprintf(w, "NOTE  %s: no baseline row (new circuit?)\n", tag)
						continue
					}
					bound, limit = g.Bound*b, fmt.Sprintf("%s %g x baseline %g", g.Op, g.Bound, b)
				}
				if g.holds(r.Value, bound) {
					fmt.Fprintf(w, "OK    %s = %g (%s)\n", tag, r.Value, limit)
				} else {
					fmt.Fprintf(w, "FAIL  %s = %g, want %s\n", tag, r.Value, limit)
					ok = false
				}
			}
			if matched < g.MinRows {
				fmt.Fprintf(w, "FAIL  %s: %d rows of %s, want at least %d\n", name, matched, what, g.MinRows)
				ok = false
			}
		}
	}
	return ok
}
