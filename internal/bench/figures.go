package bench

import (
	"fmt"
	"math/rand"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/poly"
	"c2nn/internal/truthtab"
)

// fig4MaxDNF is the largest L the DNF baseline is swept to: it grows as
// 4^L, so beyond this one point outlasts the rest of the figure.
const fig4MaxDNF = 12

// runFig4 regenerates Fig. 4: per-L polynomial generation time from a
// random dense truth table (the worst case for both methods), for
// Algorithm 1 and — up to fig4MaxDNF — the DNF baseline. Each point is
// the fastest conversion seen within the measurement floor.
func runFig4(e *Env, out *emitter) error {
	rng := rand.New(rand.NewSource(e.Seed))
	for _, l := range e.Ls {
		tab := truthtab.New(l)
		for i := range tab.Words {
			tab.Words[i] = rng.Uint64()
		}
		tab = tab.Not().Not() // re-mask

		pt := out.at("", l)
		var p, q poly.Poly
		alg1, _ := measure(e.MinMeasure, func() error { p = poly.FromTable(tab); return nil })
		pt.dur("alg1_ns", alg1.best)
		dnf := "(skipped)"
		if l <= fig4MaxDNF {
			t, _ := measure(e.MinMeasure, func() error { q = poly.FromTableDNF(tab); return nil })
			if q.NumTerms() != p.NumTerms() {
				return fmt.Errorf("L=%d: converters disagree (%d vs %d terms)", l, p.NumTerms(), q.NumTerms())
			}
			pt.dur("dnf_ns", t.best)
			dnf = t.best.String()
		}
		pt.count("terms", int64(p.NumTerms()))
		e.logf("[fig4] L=%-2d alg1=%-12s dnf=%s", l, alg1.best, dnf)
	}
	return nil
}

// runFig6 regenerates both panels of Fig. 6: the circuit (the paper's
// subject is UART) compiled at each L into the merged network the
// figure plots, reporting NN shape and single-stimulus simulation time
// with every worker (the "GPU" analogue, top panel) and with one worker
// (CPU, bottom panel).
func runFig6(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		res, err := Compile(c, compile.Options{L: l, Merge: true, Trace: e.Trace})
		if err != nil {
			return err
		}
		stats := res.Model.Net.ComputeStats()
		pt := out.at(c.Name, l)
		pt.count("layers", int64(stats.Layers))
		pt.count("connections", int64(stats.Connections))
		for _, workers := range []int{0, 1} {
			d, err := stepLatency(res, e.Batch, workers, e.MinMeasure, e.Trace)
			if err != nil {
				return err
			}
			pt.with(workers).dur("step_ns", d)
		}
		e.logf("[fig6] %s L=%-2d layers=%-3d conn=%d", c.Name, l, stats.Layers, stats.Connections)
		return nil
	})
}
