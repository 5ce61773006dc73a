package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/fault"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// FaultRow is one circuit × L fault-grading measurement: the collapsed
// universe size and the grading throughput (simulated fault classes per
// second) of every execution substrate on the same random stimuli.
type FaultRow struct {
	Circuit   string  `json:"circuit"`
	L         int     `json:"l"`
	Gates     int     `json:"gates"`
	Batch     int     `json:"batch"`
	RawFaults int     `json:"raw_faults"`
	Simulated int     `json:"simulated"`
	Coverage  float64 `json:"coverage"`

	Float32FPS   float64 `json:"float32_fps"`
	Int32FPS     float64 `json:"int32_fps"`
	BitPackedFPS float64 `json:"bitpacked_fps"`
	// PackedSpeedup is BitPackedFPS / Float32FPS.
	PackedSpeedup float64 `json:"packed_speedup"`
}

// FaultsConfig tunes the fault-grading benchmark.
type FaultsConfig struct {
	Ls     []int
	Batch  int
	Cycles int
	Seed   int64
	// Trace, when non-nil, records compile-stage and fault.grade/round
	// spans for the whole grading benchmark.
	Trace *obs.Trace
}

// DefaultFaultsConfig grades at L=4 with a full packed word of lanes
// and a short random stimulus stream — sized for CI.
func DefaultFaultsConfig() FaultsConfig {
	return FaultsConfig{Ls: []int{4}, Batch: 64, Cycles: 32, Seed: 1}
}

// RunFaults grades the fault universe of the named circuits (nil = all
// benchmark circuits) on every backend, reporting faults/second.
// Detection results are asserted identical across backends.
func RunFaults(names []string, cfg FaultsConfig, progress io.Writer) ([]FaultRow, error) {
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

	var rows []FaultRow
	for _, c := range list {
		for _, l := range cfg.Ls {
			res, err := Compile(c, compile.Options{L: l, Trace: cfg.Trace})
			if err != nil {
				return nil, err
			}
			u := fault.Enumerate(res.Mapping.Graph, len(res.Model.Feedback))
			row := FaultRow{Circuit: c.Name, L: l,
				Gates: res.Netlist.GateCount(), Batch: cfg.Batch, RawFaults: u.Raw}
			var detected []string
			for _, p := range []simengine.Precision{simengine.Float32, simengine.Int32, simengine.BitPacked} {
				rep, err := fault.Grade(res.Model, res.Mapping.Graph, u, nil, fault.Config{
					Precision:    p,
					Batch:        cfg.Batch,
					RandomCycles: cfg.Cycles,
					Seed:         cfg.Seed,
					Trace:        cfg.Trace,
				})
				if err != nil {
					return nil, fmt.Errorf("%s L=%d %s: %w", c.Name, l, p, err)
				}
				if detected == nil {
					detected = rep.DetectedFaults
					row.Simulated = rep.Simulated
					row.Coverage = rep.Coverage
				} else if !equalStrings(detected, rep.DetectedFaults) {
					return nil, fmt.Errorf("%s L=%d: %s detects a different fault set than float32",
						c.Name, l, p)
				}
				switch p {
				case simengine.Float32:
					row.Float32FPS = rep.FaultsPerSec
				case simengine.Int32:
					row.Int32FPS = rep.FaultsPerSec
				case simengine.BitPacked:
					row.BitPackedFPS = rep.FaultsPerSec
				}
			}
			if row.Float32FPS > 0 {
				row.PackedSpeedup = row.BitPackedFPS / row.Float32FPS
			}
			logf("[%s] L=%-2d %d faults, %.1f%% cov: f32=%.3g i32=%.3g bp=%.3g faults/s (packed x%.1f)",
				c.Name, l, row.Simulated, row.Coverage,
				row.Float32FPS, row.Int32FPS, row.BitPackedFPS, row.PackedSpeedup)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FormatFaults renders the fault-grading benchmark as an aligned table.
func FormatFaults(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %8s %6s %9s %9s %6s | %12s %12s %12s %8s\n",
		"Circuit", "L", "Gates", "Batch", "Faults", "Simulated", "Cov%",
		"f32(f/s)", "i32(f/s)", "bp(f/s)", "bp/f32")
	b.WriteString(strings.Repeat("-", 122) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %3d %8d %6d %9d %9d %6.1f | %12.2E %12.2E %12.2E %8.1f\n",
			r.Circuit, r.L, r.Gates, r.Batch, r.RawFaults, r.Simulated, r.Coverage,
			r.Float32FPS, r.Int32FPS, r.BitPackedFPS, r.PackedSpeedup)
	}
	return b.String()
}

// faultsJSON is the machine-readable envelope of WriteFaultsJSON.
type faultsJSON struct {
	Meta  Meta       `json:"meta"`
	Batch int        `json:"batch"`
	Rows  []FaultRow `json:"rows"`
}

// WriteFaultsJSON writes the fault benchmark as indented JSON.
func WriteFaultsJSON(w io.Writer, rows []FaultRow) error {
	env := faultsJSON{Meta: CollectMeta(), Rows: rows}
	if len(rows) > 0 {
		env.Batch = rows[0].Batch
	}
	if env.Rows == nil {
		env.Rows = []FaultRow{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
