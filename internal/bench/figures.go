package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/poly"
	"c2nn/internal/truthtab"
)

// Fig4Row is one point of Fig. 4: polynomial generation time from a
// truth table at LUT size L, for Algorithm 1 and the DNF baseline.
type Fig4Row struct {
	L         int
	Alg1Time  time.Duration
	DNFTime   time.Duration // 0 when skipped (too large)
	DNFValid  bool
	TermCount int
}

// Fig4Config tunes the Fig. 4 sweep.
type Fig4Config struct {
	MaxLAlg1 int // Algorithm 1 swept to this L (paper plots ~22)
	MaxLDNF  int // DNF baseline swept to this L (grows as 4^L)
	Reps     int // repetitions per point (median-ish via min)
	Seed     int64
}

// DefaultFig4Config mirrors the figure's ranges at laptop-safe sizes.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{MaxLAlg1: 20, MaxLDNF: 12, Reps: 3, Seed: 7}
}

// RunFig4 regenerates Fig. 4: per-L conversion time for both methods on
// random dense truth tables (the worst case for both).
func RunFig4(cfg Fig4Config, progress io.Writer) []Fig4Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []Fig4Row
	for l := 2; l <= cfg.MaxLAlg1; l++ {
		tab := truthtab.New(l)
		for i := range tab.Words {
			tab.Words[i] = rng.Uint64()
		}
		tab = tab.Not().Not() // re-mask

		row := Fig4Row{L: l}
		var p poly.Poly
		best := time.Duration(1<<62 - 1)
		for r := 0; r < cfg.Reps; r++ {
			start := time.Now()
			p = poly.FromTable(tab)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		row.Alg1Time = best
		row.TermCount = p.NumTerms()

		if l <= cfg.MaxLDNF {
			best = time.Duration(1<<62 - 1)
			var q poly.Poly
			for r := 0; r < cfg.Reps; r++ {
				start := time.Now()
				q = poly.FromTableDNF(tab)
				if d := time.Since(start); d < best {
					best = d
				}
			}
			row.DNFTime = best
			row.DNFValid = true
			if q.NumTerms() != p.NumTerms() {
				panic("bench: converters disagree") // invariant; tested in internal/poly
			}
		}
		if progress != nil {
			fmt.Fprintf(progress, "[fig4] L=%-2d alg1=%-12s dnf=%s\n", l, row.Alg1Time, fmtDNF(row))
		}
		rows = append(rows, row)
	}
	return rows
}

func fmtDNF(r Fig4Row) string {
	if !r.DNFValid {
		return "(skipped)"
	}
	return r.DNFTime.String()
}

// FormatFig4 renders the sweep as the two series of Fig. 4.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %14s %14s %10s\n", "L", "Alg1 (ours)", "DNF method", "terms")
	b.WriteString(strings.Repeat("-", 46) + "\n")
	for _, r := range rows {
		dnf := "-"
		if r.DNFValid {
			dnf = r.DNFTime.String()
		}
		fmt.Fprintf(&b, "%-4d %14s %14s %10d\n", r.L, r.Alg1Time, dnf, r.TermCount)
	}
	return b.String()
}

// Fig6Row is one point of Fig. 6: the UART circuit compiled at LUT size
// L, reporting NN shape and single-stimulus simulation time in parallel
// ("GPU"-analogue) and sequential (CPU) modes.
type Fig6Row struct {
	L           int
	Layers      int
	Connections int
	ParTime     time.Duration // many workers (Fig. 6 top)
	SeqTime     time.Duration // one worker   (Fig. 6 bottom)
}

// Fig6Config tunes the Fig. 6 sweep.
type Fig6Config struct {
	Circuit string // default "UART", the paper's subject
	MinL    int
	MaxL    int
	Workers int // parallel-mode workers (0 = GOMAXPROCS)
	Reps    int
}

// DefaultFig6Config mirrors the paper's L = 2..11 sweep on UART.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{Circuit: "UART", MinL: 2, MaxL: 11, Reps: 50}
}

// RunFig6 regenerates both panels of Fig. 6.
func RunFig6(cfg Fig6Config, progress io.Writer) ([]Fig6Row, error) {
	c, err := circuits.ByName(cfg.Circuit)
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for l := cfg.MinL; l <= cfg.MaxL; l++ {
		res, err := Compile(c, compile.Options{L: l})
		if err != nil {
			return nil, err
		}
		stats := res.Model.Net.ComputeStats()
		par, err := SingleStimulusLatency(res, cfg.Workers, cfg.Reps)
		if err != nil {
			return nil, err
		}
		seq, err := SingleStimulusLatency(res, 1, cfg.Reps)
		if err != nil {
			return nil, err
		}
		row := Fig6Row{L: l, Layers: stats.Layers, Connections: stats.Connections,
			ParTime: par, SeqTime: seq}
		if progress != nil {
			fmt.Fprintf(progress, "[fig6] L=%-2d layers=%-3d conn=%-8d par=%-10s seq=%s\n",
				l, row.Layers, row.Connections, par, seq)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig6 renders both panels of Fig. 6 as aligned series.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %8s %13s | %16s %16s\n",
		"L", "layers", "connections", "parallel (GPU)", "sequential (CPU)")
	b.WriteString(strings.Repeat("-", 66) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %8d %13d | %16s %16s\n",
			r.L, r.Layers, r.Connections, r.ParTime, r.SeqTime)
	}
	return b.String()
}
