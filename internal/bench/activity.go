package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// ActivityRow is one circuit × workload activity-driven execution
// measurement: the skip rate the workload achieved, wall-clock per step
// with skipping off and on, and whether the two runs were bit-identical
// on every sampled output bit (they must be — the differential battery
// enforces it, this row just re-checks it in the benchmark loop so a
// regression is visible in CI artifacts too).
type ActivityRow struct {
	Circuit  string `json:"circuit"`
	L        int    `json:"l"`
	Workload string `json:"workload"` // "<name>.tb" or "dense_random"
	Backend  string `json:"backend"`
	Batch    int    `json:"batch"`
	Steps    int    `json:"steps"`
	Clusters int    `json:"clusters"`

	// DirtyClusters/SkippedClusters tally the activity run's dispatch
	// decisions; SkipRate is skipped over (dirty+skipped).
	DirtyClusters   int64   `json:"dirty_clusters"`
	SkippedClusters int64   `json:"skipped_clusters"`
	SkipRate        float64 `json:"skip_rate"`

	BaselineNsPerStep float64 `json:"baseline_ns_per_step"`
	ActivityNsPerStep float64 `json:"activity_ns_per_step"`
	// Speedup is baseline over activity wall-clock (>1 means skipping won).
	Speedup float64 `json:"speedup"`
	// Equal reports the lock-step output comparison of the two modes.
	Equal bool `json:"equal"`
}

// ActivityConfig tunes the activity benchmark run.
type ActivityConfig struct {
	Ls      []int
	Batch   int
	Workers int // 0 = GOMAXPROCS
	// MinMeasure is the per-mode timing floor.
	MinMeasure time.Duration
	Seed       int64
	// TestbenchDir is scanned for <circuit>_smoke.tb replay workloads.
	TestbenchDir string
	// DenseCycles is the length of the dense-random workload (every
	// input redrawn every cycle — the worst case for skipping, which
	// bounds the root-diff overhead).
	DenseCycles int
}

// DefaultActivityConfig measures the protocol cores at L=4 on the
// bit-packed backend: control-heavy circuits with shipped testbenches
// are where activity-driven execution earns its keep.
func DefaultActivityConfig() ActivityConfig {
	return ActivityConfig{
		Ls:           []int{4},
		Batch:        256,
		MinMeasure:   300 * time.Millisecond,
		Seed:         1,
		TestbenchDir: "testbenches",
		DenseCycles:  64,
	}
}

// RunActivity measures activity-driven execution on the named circuits
// (nil = UART, SPI, DMA): for each circuit × L it replays the shipped
// smoke testbench (when one exists) and a dense-random workload, each
// with skipping off and on, verifying bit-identical outputs and
// reporting skip rate and per-step wall clock.
func RunActivity(names []string, cfg ActivityConfig, progress io.Writer) ([]ActivityRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	if names == nil {
		names = []string{"UART", "SPI", "DMA"}
	}
	var rows []ActivityRow
	for _, name := range names {
		for _, l := range cfg.Ls {
			c, err := circuits.ByName(name)
			if err != nil {
				return nil, err
			}
			res, err := Compile(c, compile.Options{L: l})
			if err != nil {
				return nil, err
			}
			var workloads []activityWorkload
			if cfg.TestbenchDir != "" {
				tb := strings.ToLower(res.Circuit.Name) + "_smoke.tb"
				if src, err := os.ReadFile(filepath.Join(cfg.TestbenchDir, tb)); err == nil {
					script, err := testbench.Parse(string(src))
					if err != nil {
						return nil, fmt.Errorf("%s: %w", tb, err)
					}
					workloads = append(workloads, activityWorkload{name: tb, script: script})
				}
			}
			workloads = append(workloads, activityWorkload{name: "dense_random"})
			for _, w := range workloads {
				row, err := measureActivity(res, w, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s L=%d %s: %w", name, l, w.name, err)
				}
				eq := "equal"
				if !row.Equal {
					eq = "OUTPUTS DIVERGED"
				}
				logf("[%s] L=%d %-16s skip=%5.1f%%  base=%8.0f ns/step  act=%8.0f ns/step  %.2fx  %s",
					name, l, w.name, 100*row.SkipRate,
					row.BaselineNsPerStep, row.ActivityNsPerStep, row.Speedup, eq)
				rows = append(rows, *row)
			}
		}
	}
	return rows, nil
}

type activityWorkload struct {
	name   string
	script *testbench.Script // nil for dense_random
}

// measureActivity runs one workload three times: a lock-step equality
// pass (both modes, outputs compared every sample), then one timed pass
// per mode.
func measureActivity(res *CompileResult, w activityWorkload, cfg ActivityConfig) (*ActivityRow, error) {
	newEngine := func(activity bool) (*simengine.Engine, error) {
		return simengine.New(res.Model, simengine.Options{
			Batch: cfg.Batch, Workers: cfg.Workers,
			Precision: simengine.BitPacked, Activity: activity,
		})
	}
	base, err := newEngine(false)
	if err != nil {
		return nil, err
	}
	defer base.Close()
	act, err := newEngine(true)
	if err != nil {
		return nil, err
	}
	defer act.Close()

	row := &ActivityRow{
		Circuit: res.Circuit.Name, L: res.L, Workload: w.name,
		Backend: simengine.BitPacked.String(), Batch: cfg.Batch,
		Clusters: len(act.Plan().Clusters.Clusters),
	}

	// Equality pass: identical stimuli into both engines, every output
	// port compared at every sample.
	equal := true
	compare := func(eng ...*simengine.Engine) error {
		for _, out := range res.Model.Outputs {
			for lane := 0; lane < cfg.Batch && equal; lane++ {
				ref, err := eng[0].GetOutputBits(out.Name, lane)
				if err != nil {
					return err
				}
				got, err := eng[1].GetOutputBits(out.Name, lane)
				if err != nil {
					return err
				}
				for i := range ref {
					if ref[i] != got[i] {
						equal = false
						break
					}
				}
			}
		}
		return nil
	}
	if w.script != nil {
		// Replay the script on both engines in sequence, recording every
		// traced sample's outputs, then diff the recordings.
		var recs [2][]bool
		for i, eng := range []*simengine.Engine{base, act} {
			i := i
			eng := eng
			if _, err := w.script.RunOpts(eng, testbench.RunOptions{
				Trace: func(int) error {
					for _, out := range res.Model.Outputs {
						for lane := 0; lane < cfg.Batch; lane++ {
							bits, err := eng.GetOutputBits(out.Name, lane)
							if err != nil {
								return err
							}
							recs[i] = append(recs[i], bits...)
						}
					}
					return nil
				},
			}); err != nil {
				return nil, err
			}
		}
		if len(recs[0]) != len(recs[1]) {
			equal = false
		} else {
			for i := range recs[0] {
				if recs[0][i] != recs[1][i] {
					equal = false
					break
				}
			}
		}
	} else {
		stim := NewStimulusSet(res.Netlist, cfg.DenseCycles, cfg.Batch, cfg.Seed)
		for c := 0; c < cfg.DenseCycles; c++ {
			for p, port := range stim.Ports {
				if err := base.SetInput(port, stim.Values[c][p]); err != nil {
					return nil, err
				}
				if err := act.SetInput(port, stim.Values[c][p]); err != nil {
					return nil, err
				}
			}
			base.Forward()
			act.Forward()
			if err := compare(base, act); err != nil {
				return nil, err
			}
			base.LatchFeedback()
			act.LatchFeedback()
		}
	}
	row.Equal = equal

	// Timed passes: fresh counters per mode, Reset between replays.
	timeMode := func(eng *simengine.Engine) (int, float64, error) {
		steps := 0
		var stim *StimulusSet
		if w.script == nil {
			stim = NewStimulusSet(res.Netlist, cfg.DenseCycles, cfg.Batch, cfg.Seed)
		}
		start := time.Now()
		for time.Since(start) < cfg.MinMeasure || steps == 0 {
			if w.script != nil {
				eng.Reset()
				r, err := w.script.Run(eng)
				if err != nil {
					return 0, 0, err
				}
				steps += r.Steps
			} else {
				for c := 0; c < cfg.DenseCycles; c++ {
					for p, port := range stim.Ports {
						if err := eng.SetInput(port, stim.Values[c][p]); err != nil {
							return 0, 0, err
						}
					}
					eng.Step()
				}
				steps += cfg.DenseCycles
			}
		}
		elapsed := time.Since(start)
		if steps == 0 {
			return 0, 0, fmt.Errorf("workload drove no steps")
		}
		return steps, float64(elapsed.Nanoseconds()) / float64(steps), nil
	}
	if _, ns, err := timeMode(base); err != nil {
		return nil, err
	} else {
		row.BaselineNsPerStep = ns
	}
	d0, s0 := act.ActivityCounters()
	steps, ns, err := timeMode(act)
	if err != nil {
		return nil, err
	}
	row.Steps = steps
	row.ActivityNsPerStep = ns
	d1, s1 := act.ActivityCounters()
	row.DirtyClusters = d1 - d0
	row.SkippedClusters = s1 - s0
	if tot := row.DirtyClusters + row.SkippedClusters; tot > 0 {
		row.SkipRate = float64(row.SkippedClusters) / float64(tot)
	}
	if row.ActivityNsPerStep > 0 {
		row.Speedup = row.BaselineNsPerStep / row.ActivityNsPerStep
	}
	return row, nil
}

// FormatActivity renders the activity rows as an aligned text table.
func FormatActivity(rows []ActivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %-16s %6s %7s %8s %12s %12s %8s %6s\n",
		"Circuit", "L", "Workload", "Steps", "Clust", "skip%", "base ns/st", "act ns/st", "speedup", "equal")
	b.WriteString(strings.Repeat("-", 106) + "\n")
	for _, r := range rows {
		eq := "yes"
		if !r.Equal {
			eq = "NO"
		}
		fmt.Fprintf(&b, "%-18s %3d %-16s %6d %7d %8.1f %12.0f %12.0f %8.2f %6s\n",
			r.Circuit, r.L, r.Workload, r.Steps, r.Clusters, 100*r.SkipRate,
			r.BaselineNsPerStep, r.ActivityNsPerStep, r.Speedup, eq)
	}
	return b.String()
}

// activityJSON is the BENCH_activity.json envelope of the CI bench job.
type activityJSON struct {
	Meta Meta          `json:"meta"`
	Rows []ActivityRow `json:"rows"`
}

// WriteActivityJSON writes the activity rows as indented JSON.
func WriteActivityJSON(w io.Writer, rows []ActivityRow) error {
	env := activityJSON{Meta: CollectMeta(), Rows: rows}
	if env.Rows == nil {
		env.Rows = []ActivityRow{}
	}
	sort.SliceStable(env.Rows, func(i, j int) bool {
		if env.Rows[i].Circuit != env.Rows[j].Circuit {
			return env.Rows[i].Circuit < env.Rows[j].Circuit
		}
		if env.Rows[i].L != env.Rows[j].L {
			return env.Rows[i].L < env.Rows[j].L
		}
		return env.Rows[i].Workload < env.Rows[j].Workload
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
