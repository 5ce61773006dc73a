package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/exec/plan"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// BackendRow is one circuit × L backend comparison: the same model and
// stimulus stream timed on all three execution substrates.
type BackendRow struct {
	Circuit      string  `json:"circuit"`
	L            int     `json:"l"`
	Gates        int     `json:"gates"`
	Batch        int     `json:"batch"`
	Float32GCS   float64 `json:"float32_gcs"`
	Int32GCS     float64 `json:"int32_gcs"`
	BitPackedGCS float64 `json:"bitpacked_gcs"`
	// PackedSpeedup is BitPackedGCS / Float32GCS.
	PackedSpeedup float64 `json:"packed_speedup"`
	// KernelMix tallies plan rows per specialized kernel kind — the
	// census explaining where the packed throughput comes from.
	KernelMix map[string]int `json:"kernel_mix,omitempty"`
}

// BackendsConfig tunes the backend comparison run.
type BackendsConfig struct {
	Ls         []int
	Batch      int
	Workers    int // 0 = GOMAXPROCS
	MinMeasure time.Duration
	Seed       int64
	// Trace, when non-nil, records compile-stage and per-measurement
	// spans for the whole comparison run.
	Trace *obs.Trace
}

// DefaultBackendsConfig compares at the paper's L values with a batch
// that is a multiple of the 64-lane packed word.
func DefaultBackendsConfig() BackendsConfig {
	return BackendsConfig{
		Ls:         []int{4, 7},
		Batch:      256,
		MinMeasure: 200 * time.Millisecond,
		Seed:       1,
	}
}

// RunBackends measures every execution substrate on the named circuits
// (nil = all benchmark circuits) at each configured L.
func RunBackends(names []string, cfg BackendsConfig, progress io.Writer) ([]BackendRow, error) {
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

	var rows []BackendRow
	for _, c := range list {
		for _, l := range cfg.Ls {
			bsp := cfg.Trace.Begin(fmt.Sprintf("bench %s L=%d", c.Name, l))
			res, err := Compile(c, compile.Options{L: l, Trace: cfg.Trace})
			if err != nil {
				return nil, err
			}
			stim := NewStimulusSet(res.Netlist, 64, cfg.Batch, cfg.Seed)
			row := BackendRow{Circuit: c.Name, L: l,
				Gates: res.Netlist.GateCount(), Batch: cfg.Batch}
			if p, err := plan.Compile(res.Model); err == nil {
				row.KernelMix = p.KernelMix()
			}
			for _, p := range []simengine.Precision{simengine.Float32, simengine.Int32, simengine.BitPacked} {
				gcs, err := NNThroughputTraced(res, stim, cfg.Batch, cfg.Workers, p, cfg.MinMeasure, cfg.Trace)
				if err != nil {
					return nil, fmt.Errorf("%s L=%d %s: %w", c.Name, l, p, err)
				}
				switch p {
				case simengine.Float32:
					row.Float32GCS = gcs
				case simengine.Int32:
					row.Int32GCS = gcs
				case simengine.BitPacked:
					row.BitPackedGCS = gcs
				}
			}
			if row.Float32GCS > 0 {
				row.PackedSpeedup = row.BitPackedGCS / row.Float32GCS
			}
			logf("[%s] L=%-2d float32=%.3g int32=%.3g bitpacked=%.3g (packed x%.1f)",
				c.Name, l, row.Float32GCS, row.Int32GCS, row.BitPackedGCS, row.PackedSpeedup)
			bsp.End()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatBackends renders the comparison as an aligned text table.
func FormatBackends(rows []BackendRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %8s %6s | %12s %12s %12s %8s\n",
		"Circuit", "L", "Gates", "Batch",
		"f32(g*c/s)", "i32(g*c/s)", "bp(g*c/s)", "bp/f32")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %3d %8d %6d | %12.2E %12.2E %12.2E %8.1f\n",
			r.Circuit, r.L, r.Gates, r.Batch,
			r.Float32GCS, r.Int32GCS, r.BitPackedGCS, r.PackedSpeedup)
	}
	return b.String()
}

// backendsJSON is the machine-readable envelope of WriteBackendsJSON,
// the CI interchange format of the short-benchmark job. Meta records
// the run environment so archived results stay comparable.
type backendsJSON struct {
	Meta  Meta         `json:"meta"`
	Batch int          `json:"batch"`
	Rows  []BackendRow `json:"rows"`
}

// WriteBackendsJSON writes the comparison as indented JSON.
func WriteBackendsJSON(w io.Writer, rows []BackendRow) error {
	env := backendsJSON{Meta: CollectMeta(), Rows: rows}
	if len(rows) > 0 {
		env.Batch = rows[0].Batch
	}
	if env.Rows == nil {
		env.Rows = []BackendRow{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
