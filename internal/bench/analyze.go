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
	"c2nn/internal/exec/analyze"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// AnalyzeRow is one circuit × L static-analysis record: the cone
// clustering and cost-model summary, the aliasing verdict, and — when
// the row was also measured — the correlation between the static
// per-layer cost and the per-layer runtime observed on the bit-packed
// backend.
type AnalyzeRow struct {
	Circuit    string `json:"circuit"`
	L          int    `json:"l"`
	Gates      int    `json:"gates"`
	Layers     int    `json:"layers"`
	Rows       int    `json:"rows"`
	Components int32  `json:"components"`
	Clusters   int    `json:"clusters"`
	// ConstRows counts statically-constant threshold rows (PA006).
	ConstRows int `json:"const_rows"`
	// AliasClean reports the arena aliasing/liveness proof: true when
	// the analyzer emitted no Error-severity diagnostics.
	AliasClean bool `json:"alias_clean"`

	FloatMACs     int64   `json:"float_macs"`
	PackedWordOps int64   `json:"packed_word_ops"`
	PackedBytes   int64   `json:"packed_bytes"`
	Intensity     float64 `json:"intensity"`
	CriticalPath  int     `json:"critical_path"`

	// MeasuredLayers is how many per-layer kernel spans the measurement
	// pass observed (0 when measurement was skipped).
	MeasuredLayers int `json:"measured_layers"`
	// CostCorrelation is the Pearson correlation between the static
	// per-layer PackedWordOps and the measured per-layer kernel time on
	// the bit-packed backend.
	CostCorrelation float64 `json:"cost_correlation"`

	// Activity holds the smoke-testbench activity-probe summary for
	// circuits that ship one (UART/SPI/DMA); nil otherwise.
	Activity *analyze.ActivityStats `json:"activity,omitempty"`
}

// AnalyzeConfig tunes the static-analysis benchmark run.
type AnalyzeConfig struct {
	Ls         []int
	Batch      int
	Workers    int // 0 = GOMAXPROCS
	MinMeasure time.Duration
	Seed       int64
	// TestbenchDir, when non-empty, is scanned for <circuit>_smoke.tb
	// scripts; matching circuits get an activity-probe run.
	TestbenchDir string
	// Trace, when non-nil, records compile and analysis spans.
	Trace *obs.Trace
}

// DefaultAnalyzeConfig analyses at the paper's L values and measures
// each plan long enough for a stable per-layer profile.
func DefaultAnalyzeConfig() AnalyzeConfig {
	return AnalyzeConfig{
		Ls:           []int{4, 7},
		Batch:        256,
		MinMeasure:   200 * time.Millisecond,
		Seed:         1,
		TestbenchDir: "testbenches",
	}
}

// RunAnalyze statically analyses the named circuits (nil = all
// benchmark circuits) at each configured L, measures the bit-packed
// backend per layer to correlate the static cost model against real
// runtime, and — where a smoke testbench exists — samples root
// activity through the cluster graph.
func RunAnalyze(names []string, cfg AnalyzeConfig, progress io.Writer) ([]AnalyzeRow, error) {
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

	var rows []AnalyzeRow
	for _, c := range list {
		for _, l := range cfg.Ls {
			asp := cfg.Trace.Begin(fmt.Sprintf("analyze %s L=%d", c.Name, l))
			row, err := analyzeOne(c, l, cfg)
			asp.End()
			if err != nil {
				return nil, fmt.Errorf("%s L=%d: %w", c.Name, l, err)
			}
			clean := "clean"
			if !row.AliasClean {
				clean = "ALIAS ERRORS"
			}
			act := ""
			if row.Activity != nil {
				act = fmt.Sprintf(" activity=%.1f%% cost=%.1f%%",
					100*row.Activity.DirtyFraction, 100*row.Activity.DirtyCostFraction)
			}
			logf("[%s] L=%-2d %d clusters/%d comps, %d word-ops, alias %s, r=%.3f%s",
				c.Name, l, row.Clusters, row.Components, row.PackedWordOps,
				clean, row.CostCorrelation, act)
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// analyzeOne builds one AnalyzeRow: compile, analyze, measure,
// correlate, and (when a smoke testbench exists) probe activity.
func analyzeOne(c circuits.Circuit, l int, cfg AnalyzeConfig) (*AnalyzeRow, error) {
	res, err := Compile(c, compile.Options{L: l, Trace: cfg.Trace})
	if err != nil {
		return nil, err
	}

	// The measurement engine carries its own trace so the per-layer
	// kernel spans are not diluted by unrelated spans on cfg.Trace.
	mtr := obs.New()
	eng, err := simengine.New(res.Model, simengine.Options{
		Batch: cfg.Batch, Workers: cfg.Workers,
		Precision: simengine.BitPacked, Trace: mtr,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	ar, err := analyze.Run(eng.Plan(), analyze.Options{Trace: cfg.Trace})
	if err != nil {
		return nil, err
	}

	row := &AnalyzeRow{
		Circuit: c.Name, L: l, Gates: res.Netlist.GateCount(),
		Layers:     len(eng.Plan().Layers),
		Rows:       ar.Degenerate.TotalRows,
		Components: ar.Meta.NumComponents,
		Clusters:   len(ar.Meta.Clusters),
		ConstRows:  len(ar.Degenerate.Constant),
		AliasClean: true,

		FloatMACs:     ar.Cost.Total.FloatMACs,
		PackedWordOps: ar.Cost.Total.PackedWordOps,
		PackedBytes:   ar.Cost.Total.PackedBytes,
		Intensity:     ar.Cost.Total.Intensity,
		CriticalPath:  ar.Cost.Total.CriticalPath,
	}
	for _, d := range ar.Diags {
		if d.Severity == diag.Error {
			row.AliasClean = false
		}
	}

	// Drive the bit-packed backend with random stimuli for long enough
	// to accumulate a per-layer time profile, then correlate it with
	// the static per-layer packed-word-op cost.
	if cfg.MinMeasure > 0 {
		stim := NewStimulusSet(res.Netlist, 64, cfg.Batch, cfg.Seed)
		cycles := 0
		start := time.Now()
		for time.Since(start) < cfg.MinMeasure {
			sc := stim.Values[cycles%stim.Cycles]
			for p, name := range stim.Ports {
				if err := eng.SetInput(name, sc[p]); err != nil {
					return nil, err
				}
			}
			eng.Step()
			cycles++
		}
		measured := layerTimes(mtr, len(eng.Plan().Layers))
		static := make([]float64, 0, len(measured))
		sampled := make([]float64, 0, len(measured))
		for li, d := range measured {
			if d <= 0 {
				continue
			}
			static = append(static, float64(ar.Cost.Layers[li].PackedWordOps))
			sampled = append(sampled, d.Seconds())
		}
		row.MeasuredLayers = len(sampled)
		row.CostCorrelation = pearson(static, sampled)
	}

	// Activity probe over the shipped smoke testbench, if any.
	if cfg.TestbenchDir != "" {
		tb := filepath.Join(cfg.TestbenchDir,
			strings.ToLower(c.Name)+"_smoke.tb")
		if src, err := os.ReadFile(tb); err == nil {
			st, err := probeTestbench(res, string(src))
			if err != nil {
				return nil, fmt.Errorf("activity probe %s: %w", tb, err)
			}
			row.Activity = st
		}
	}
	return row, nil
}

// probeTestbench replays a testbench script on a fresh engine with an
// activity probe sampling the sequential roots after every step.
func probeTestbench(res *CompileResult, src string) (*analyze.ActivityStats, error) {
	script, err := testbench.Parse(src)
	if err != nil {
		return nil, err
	}
	eng, err := simengine.New(res.Model, simengine.Options{Batch: 2})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, err := analyze.Run(eng.Plan(), analyze.Options{}); err != nil {
		return nil, err
	}
	pr, err := analyze.NewProbe(eng)
	if err != nil {
		return nil, err
	}
	if _, err := script.RunOpts(eng, testbench.RunOptions{
		Trace: func(int) error { pr.Sample(); return nil },
	}); err != nil {
		return nil, err
	}
	st := pr.Stats()
	return &st, nil
}

// layerTimes aggregates the engine's "layer NNN kernel" spans into a
// per-layer total duration vector.
func layerTimes(tr *obs.Trace, layers int) []time.Duration {
	out := make([]time.Duration, layers)
	for _, st := range tr.StatsByName() {
		var li int
		var kernel string
		if n, err := fmt.Sscanf(st.Name, "layer %d %s", &li, &kernel); n < 1 || err != nil {
			continue
		}
		if li >= 0 && li < layers {
			out[li] += st.Total
		}
	}
	return out
}

// FormatAnalyze renders the analysis rows as an aligned text table.
func FormatAnalyze(rows []AnalyzeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %6s %6s %6s %9s %12s %6s %7s %9s %9s\n",
		"Circuit", "L", "Layers", "Comps", "Clust",
		"Rows", "WordOps", "Alias", "r", "dirty%", "cost%")
	b.WriteString(strings.Repeat("-", 104) + "\n")
	for _, r := range rows {
		alias := "ok"
		if !r.AliasClean {
			alias = "FAIL"
		}
		act, cost := "-", "-"
		if r.Activity != nil {
			act = fmt.Sprintf("%.1f", 100*r.Activity.DirtyFraction)
			cost = fmt.Sprintf("%.1f", 100*r.Activity.DirtyCostFraction)
		}
		fmt.Fprintf(&b, "%-18s %3d %6d %6d %6d %9d %12d %6s %7.3f %9s %9s\n",
			r.Circuit, r.L, r.Layers, r.Components, r.Clusters,
			r.Rows, r.PackedWordOps, alias, r.CostCorrelation, act, cost)
	}
	return b.String()
}

// analyzeJSON is the machine-readable envelope of WriteAnalyzeJSON —
// the BENCH_analyze.json interchange format of the CI analysis job.
type analyzeJSON struct {
	Meta Meta         `json:"meta"`
	Rows []AnalyzeRow `json:"rows"`
}

// WriteAnalyzeJSON writes the analysis rows as indented JSON.
func WriteAnalyzeJSON(w io.Writer, rows []AnalyzeRow) error {
	env := analyzeJSON{Meta: CollectMeta(), Rows: rows}
	if env.Rows == nil {
		env.Rows = []AnalyzeRow{}
	}
	// Deterministic row order regardless of how callers assembled them.
	sort.SliceStable(env.Rows, func(i, j int) bool {
		if env.Rows[i].Circuit != env.Rows[j].Circuit {
			return env.Rows[i].Circuit < env.Rows[j].Circuit
		}
		return env.Rows[i].L < env.Rows[j].L
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
