package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// Table1Row is one circuit × L entry of Table I.
type Table1Row struct {
	Circuit       string
	LoC           int
	Gates         int
	BaselineGCS   float64 // Verilator-stand-in throughput, gates*cycles/s
	L             int
	GenTime       time.Duration
	MemoryMB      float64
	ConnectionsM  float64 // neurons' connections, millions
	Layers        int
	MeanSparsity  float64
	NNGCS         float64 // NN engine throughput (float32), gates*cycles/s
	BitPackedGCS  float64 // bit-packed backend throughput, gates*cycles/s
	Speedup       float64 // float32 vs gate-level baseline
	VerifiedEquiv bool
}

// Table1Config tunes the Table I run.
type Table1Config struct {
	Ls           []int         // LUT sizes (paper: 3, 7, 11)
	Batch        int           // NN stimulus batch (stimulus parallelism)
	Workers      int           // 0 = GOMAXPROCS
	MinMeasure   time.Duration // per-measurement time floor
	VerifyCycles int           // equivalence-check cycles (0 to skip)
	Seed         int64
	// Trace, when non-nil, records compile-stage and per-measurement
	// spans for the whole Table I run.
	Trace *obs.Trace
}

// DefaultTable1Config mirrors the paper's sweep.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Ls:           []int{3, 7, 11},
		Batch:        1024,
		MinMeasure:   300 * time.Millisecond,
		VerifyCycles: 16,
		Seed:         1,
	}
}

// RunTable1 regenerates Table I for the named circuits (nil = all).
// Progress lines go to progress (may be nil).
func RunTable1(names []string, cfg Table1Config, progress io.Writer) ([]Table1Row, error) {
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

	var rows []Table1Row
	for _, c := range list {
		logf("[%s] elaborating…", c.Name)
		// Baseline once per circuit (independent of L).
		first, err := Compile(c, compile.Options{L: cfg.Ls[0], Trace: cfg.Trace})
		if err != nil {
			return nil, err
		}
		stim := NewStimulusSet(first.Netlist, 64, cfg.Batch, cfg.Seed)
		baseline := BaselineThroughput(first.Program, stim, cfg.MinMeasure)
		logf("[%s] baseline %.3g gates·cycles/s (%d gates)", c.Name, baseline, first.Netlist.GateCount())

		for _, l := range cfg.Ls {
			res := first
			if l != first.L {
				res, err = Compile(c, compile.Options{L: l, Trace: cfg.Trace})
				if err != nil {
					return nil, err
				}
			}
			stats := res.Model.Net.ComputeStats()
			row := Table1Row{
				Circuit:      c.Name,
				LoC:          c.LinesOfCode(),
				Gates:        res.Netlist.GateCount(),
				BaselineGCS:  baseline,
				L:            l,
				GenTime:      res.GenTime,
				MemoryMB:     float64(res.Model.MemoryBytes()) / 1e6,
				ConnectionsM: float64(stats.Connections) / 1e6,
				Layers:       stats.Layers,
				MeanSparsity: stats.MeanSparsity,
			}
			if cfg.VerifyCycles > 0 {
				if _, err := simengine.Verify(res.Model, res.Program, cfg.VerifyCycles, 4, cfg.Seed); err != nil {
					return nil, fmt.Errorf("equivalence check failed for %s at L=%d: %w", c.Name, l, err)
				}
				row.VerifiedEquiv = true
			}
			gcs, err := NNThroughputTraced(res, stim, cfg.Batch, cfg.Workers, simengine.Float32, cfg.MinMeasure, cfg.Trace)
			if err != nil {
				return nil, err
			}
			row.NNGCS = gcs
			bpGCS, err := NNThroughputTraced(res, stim, cfg.Batch, cfg.Workers, simengine.BitPacked, cfg.MinMeasure, cfg.Trace)
			if err != nil {
				return nil, err
			}
			row.BitPackedGCS = bpGCS
			if baseline > 0 {
				row.Speedup = gcs / baseline
			}
			logf("[%s] L=%-2d gen=%-8s layers=%-3d conn=%.2fM sparsity=%.5f NN=%.3g bp=%.3g speedup=%.1fx",
				c.Name, l, row.GenTime.Round(time.Millisecond), row.Layers,
				row.ConnectionsM, row.MeanSparsity, row.NNGCS, row.BitPackedGCS, row.Speedup)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable1 renders rows in the layout of the paper's Table I.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %8s %12s | %3s %10s %9s %8s %7s %9s | %12s %12s %9s %s\n",
		"Circuit", "LoC", "Gates", "Base(g*c/s)",
		"L", "GenTime", "Mem(MB)", "Conn(M)", "Layers", "Sparsity",
		"NN(g*c/s)", "BP(g*c/s)", "Speedup", "Equiv")
	b.WriteString(strings.Repeat("-", 153) + "\n")
	prev := ""
	for _, r := range rows {
		name, loc, gates, base := r.Circuit, fmt.Sprint(r.LoC), fmt.Sprint(r.Gates), fmt.Sprintf("%.2E", r.BaselineGCS)
		if r.Circuit == prev {
			name, loc, gates, base = "", "", "", ""
		}
		prev = r.Circuit
		eq := ""
		if r.VerifiedEquiv {
			eq = "yes"
		}
		fmt.Fprintf(&b, "%-18s %6s %8s %12s | %3d %10s %9.2f %8.2f %7d %9.5f | %12.2E %12.2E %9.2f %s\n",
			name, loc, gates, base,
			r.L, r.GenTime.Round(time.Millisecond), r.MemoryMB, r.ConnectionsM,
			r.Layers, r.MeanSparsity, r.NNGCS, r.BitPackedGCS, r.Speedup, eq)
	}
	return b.String()
}
