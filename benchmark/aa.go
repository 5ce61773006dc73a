package main

import (
	"errors"
	"fmt"
	"os"
)

// runAA is the A/A tool: two interleaved sets of n untraced runs of the
// same code, every run with another seed and every workload in a child
// process of its own. For each end-to-end metric and workload it prints
// each set's median and quartiles, the spread between the quartiles as
// a share of the median, how much worse the second median is than the
// first, and whether spread and difference stay within the metric's
// bound — the rule the benchmark is accepted by. The spread of setup_s
// is reported but not held to the bound: set-up is short on three of
// the four workloads and its bound guards the medians.
func runAA(n int, cfg runConfig, smoke bool, outDir string) error {
	if n < 2 {
		return errors.New("-aa needs at least 2 runs per set")
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for s := range sets {
			run := cfg
			run.seed = cfg.seed + int64(2*i+s)
			for _, w := range workloads {
				res, err := runChild(w, run, false, smoke, outDir)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d checks failed", w.name, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "benchmark: A/A run %d of %d, set %c done\n", i+1, n, 'A'+s)
		}
	}

	fmt.Printf("%-13s %-18s %5s  %-38s %-38s %7s %7s %7s  %s\n",
		"workload", "metric", "bound", "A q1/median/q3", "B q1/median/q3", "spreadA", "spreadB", "worse", "verdict")
	failures := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a1, a2, a3 := quartiles(sets[0][k])
			b1, b2, b3 := quartiles(sets[1][k])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound) {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%-13s %-18s %5.2f  %-38s %-38s %7.4f %7.4f %+7.4f  %s\n",
				w.name, d.Name, d.Bound,
				fmt.Sprintf("%.5g/%.5g/%.5g", a1, a2, a3),
				fmt.Sprintf("%.5g/%.5g/%.5g", b1, b2, b3),
				spreadA, spreadB, worse, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("A/A: %d metric × workload pairs outside their bound", failures)
	}
	fmt.Println("A/A ok: every spread and every difference of medians is within its bound")
	return nil
}
