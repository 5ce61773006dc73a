package bench

import (
	"fmt"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/equiv"
)

// runEquiv times the formal equivalence checker: CNF build and solve
// cost of the unified three-side sweep plus the per-LUT chain verdict,
// split where the checker spends it — encoding (Tseitin), the
// equivalence sweep (candidate-pair solves) and the final output
// miters. Every point is also an assertion: a non-equivalent verdict is
// a compiler or checker bug and fails the run.
func runEquiv(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		e.logf("equiv: %s L=%d", c.Name, l)
		var res *equiv.Result
		t, err := measure(0, func() (err error) {
			res, err = equiv.ProveSource(compile.FromCircuit(c),
				compile.Options{L: l, Trace: e.Trace}, equiv.Options{Trace: e.Trace})
			return err
		})
		if err != nil {
			return err
		}
		pt := out.at(c.Name, l)
		pt.count("vars", int64(res.Sweep.Vars))
		pt.count("clauses", int64(res.Sweep.Clauses))
		pt.count("tseitin_gates", int64(res.Sweep.Gates))
		pt.count("solves", res.Sweep.Solves)
		pt.count("conflicts", res.Sweep.Conflicts)
		pt.put("cnf_ms", res.Sweep.CNFMillis, "ms")
		pt.put("sweep_ms", res.Sweep.SweepMs, "ms")
		solve := 0.0
		for _, m := range res.Miters {
			solve += m.SolveMillis
		}
		pt.put("solve_ms", solve, "ms")
		pt.put("total_ms", float64(t.total.Microseconds())/1000, "ms")
		if res.Chain != nil {
			pt.count("chain_luts", int64(res.Chain.LUTs))
			pt.count("chain_rows", res.Chain.RowsChecked)
		}
		pt.flag("equivalent", res.Equivalent)
		if !res.Equivalent {
			return fmt.Errorf("equivalence not proven")
		}
		return nil
	})
}
