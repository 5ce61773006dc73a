// Command benchmark is this repository's benchmark: it drives the system
// the way a user does — Verilog text, c2nn.CompileVerilog, c2nn.NewEngine,
// stimulus load, cycles, output reads — on four workloads, checks every
// output it reads against the gate-level reference, and prints every
// metric by name and unit as JSON. README.md in this directory is the
// catalogue; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh --workload tb-replay --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                  # every workload, untraced and traced
//	bash benchmark/run.sh -aa 10           # A/A: two interleaved sets of ten runs
//	bash benchmark/run.sh -selftest        # a flipped expected bit must be caught
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print its result line; empty runs all of them, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of the generated stimulus")
		secs     = flag.Float64("seconds", defaultSeconds, "length of the timed loop")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		traceOut = flag.String("trace-out", "", "Chrome trace of a traced run (default <out-dir>/trace-<workload>.json)")
		outDir   = flag.String("out-dir", filepath.Join("benchmark", "out"), "where summaries and traces are written")
		aa       = flag.Int("aa", 0, "A/A: run two interleaved sets of this many full runs and compare them against the bounds")
		selftest = flag.Bool("selftest", false, "flip one expected bit per workload on the smoke configuration; fail unless every workload reports failed checks")
		smoke    = flag.Bool("smoke", false, "use the smoke configuration of each workload (UART L=3, 8 cycles, 1 set-up)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: *secs}

	switch {
	case *selftest:
		fatalIf(runSelftest(cfg))
	case *aa > 0:
		fatalIf(runAA(*aa, cfg, *smoke, *outDir))
	case *name != "":
		w, err := workloadByName(*name)
		fatalIf(err)
		if *smoke {
			w = w.smoke()
		}
		if *trace == 1 {
			cfg.traceOut = *traceOut
			if cfg.traceOut == "" {
				cfg.traceOut = filepath.Join(*outDir, "trace-"+w.name+".json")
			}
		}
		res, notes, err := runWorkload(w, cfg, *trace == 1)
		fatalIf(err)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "benchmark:", w.name+":", n)
		}
		line, err := json.Marshal(res)
		fatalIf(err)
		fmt.Println(string(line))
	default:
		fatalIf(runAll(cfg, *smoke, *outDir))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

// runWorkload measures one workload in this process.
func runWorkload(w workload, cfg runConfig, traced bool) (*runResult, []string, error) {
	measure, defs := measureEndToEnd, endToEnd
	if traced {
		measure, defs = measureLayers, perLayer
	}
	m, err := measure(w, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res, err := m.result(defs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, m.notes, nil
}

// runChild runs one workload in a child process of its own, so that
// memory and garbage-collector state are per workload, and parses the
// result line it prints last.
func runChild(w workload, cfg runConfig, traced, smoke bool, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", w.name,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-out-dir", outDir,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return &res, nil
}

// workloadSummary is one workload's row of the summary: both runs.
type workloadSummary struct {
	Name         string                 `json:"name"`
	Why          string                 `json:"why"`
	Checks       int64                  `json:"checks"`
	ChecksFailed int64                  `json:"checks_failed"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
}

// summary is what a run of every workload prints and writes. The
// benchmark measures; it claims nothing.
type summary struct {
	Schema    string            `json:"schema"`
	Go        string            `json:"go"`
	NumCPU    int               `json:"num_cpu"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	EndToEnd  []metricDef       `json:"end_to_end"`
	Workloads []workloadSummary `json:"workloads"`
	Claim     *string           `json:"claim"`
}

// runAll runs every workload, untraced and then traced, one child
// process at a time.
func runAll(cfg runConfig, smoke bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sum := summary{
		Schema: "c2nn-benchmark/1", Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, EndToEnd: endToEnd,
	}
	var failed []string
	for _, w := range workloads {
		plain, err := runChild(w, cfg, false, smoke, outDir)
		if err != nil {
			return err
		}
		traced, err := runChild(w, cfg, true, smoke, outDir)
		if err != nil {
			return err
		}
		sum.Workloads = append(sum.Workloads, workloadSummary{
			Name: w.name, Why: w.why,
			Checks:       plain.Attempted + traced.Attempted,
			ChecksFailed: plain.Failed + traced.Failed,
			EndToEnd:     plain.Metrics,
			PerLayer:     traced.Metrics,
		})
		if !plain.Correct || !traced.Correct {
			failed = append(failed, w.name)
		}
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	path := filepath.Join(outDir, "summary.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: summary written to", path)
	if len(failed) > 0 {
		return fmt.Errorf("outputs differ from the gate-level reference on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runSelftest proves the checks can fail: with one expected bit flipped,
// every workload must report failed checks.
func runSelftest(cfg runConfig) error {
	cfg.corrupt = true
	cfg.seconds = 0.05
	var silent []string
	for _, w := range workloads {
		res, _, err := runWorkload(w.smoke(), cfg, false)
		if err != nil {
			return err
		}
		fmt.Printf("selftest %-13s checks %d, failed %d\n", w.name, res.Attempted, res.Failed)
		if res.Failed == 0 || res.Correct {
			silent = append(silent, w.name)
		}
	}
	if len(silent) > 0 {
		return errors.New("a flipped expected bit went unnoticed on " + strings.Join(silent, ", "))
	}
	fmt.Println("selftest ok: every workload reported the flipped bit")
	return nil
}
