package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"c2nn/internal/exec/analyze"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// runProfile implements the "c2nn profile" subcommand: compile a
// circuit with the observability sink attached, drive the engine for a
// number of cycles, and report where the time went — a per-stage
// compile breakdown, the hottest layer kernels, and the run's
// throughput. -trace exports a Chrome trace (chrome://tracing /
// Perfetto), -metrics the flat counter/gauge/histogram dump.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("c2nn profile", flag.ExitOnError)
	s := sessionFlags(fs, "[-cycles n] [-activity] [-trace out.json] [-metrics out.json]", "bitpacked", 256)
	var (
		cycles    = fs.Int("cycles", 256, "random-stimulus clock cycles to drive (after the -tb script, if any)")
		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
		metrOut   = fs.String("metrics", "", "write the metrics dump as JSON")
		topN      = fs.Int("top", 10, "hot-layer and root-toggle table size (0 hides them)")
		activityF = fs.Bool("activity", false, "enable activity-driven execution and report skip rate and per-root toggle rates")
		maxSpans  = fs.Int("max-spans", obs.DefaultMaxSpans, "span arena capacity; spans beyond it are dropped (and reported)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr := obs.NewWithLimit(*maxSpans)
	if err := s.open("", fs.Args(), tr); err != nil {
		return err
	}
	s.opts.Activity = *activityF
	if err := s.start(); err != nil {
		return err
	}
	defer s.eng.Close()

	d, err := s.drive(*cycles, nil, nil)
	if err != nil {
		return err
	}

	if *traceOut != "" {
		if err := writeFileWith(*traceOut, tr.WriteChromeTrace); err != nil {
			return err
		}
	}
	if *metrOut != "" {
		if err := writeFileWith(*metrOut, tr.WriteMetricsJSON); err != nil {
			return err
		}
	}

	printProfile(tr, *topN)
	if *activityF {
		printActivity(s.eng, *topN)
	}
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr,
			"\nWARNING: %d spans were DROPPED at the %d-span cap — per-layer totals above undercount the run.\n"+
				"         Raise the cap with -max-spans, shorten the run (-cycles), or profile fewer layers.\n",
			dropped, *maxSpans)
	}
	fmt.Println()
	s.report(d)
	return nil
}

// writeFileWith creates path and streams fn into it.
func writeFileWith(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printActivity renders the skip-rate line and the per-root toggle
// table of an -activity run from the engine's own counters: how many
// cluster dispatches every lane's root diff let the backend skip, what
// share of the static cost the dirty ones carried, and which ports and
// flip-flops kept clusters dirty, busiest first.
func printActivity(eng *simengine.Engine, topN int) {
	dirty, skipped := eng.ActivityCounters()
	rate := 0.0
	if tot := dirty + skipped; tot > 0 {
		rate = float64(skipped) / float64(tot)
	}
	passes := (dirty + skipped) / int64(len(eng.Plan().Clusters.Clusters))
	fmt.Printf("\nactivity: %d cluster dispatches skipped of %d (%.1f%%), dirty cost %.1f%% of static\n",
		skipped, dirty+skipped, 100*rate,
		100*analyze.DirtyCostFraction(eng.Plan(), eng.ActivityClusterDirty(nil), passes))
	if topN <= 0 || passes == 0 {
		return
	}
	order, tog := rootsByToggles(eng.ActivityRootToggles(nil), nil)
	names := eng.RootNames()
	fmt.Printf("root toggle rates (top %d of %d):\n", min(topN, len(order)), len(order))
	fmt.Printf("%-28s %10s %8s\n", "root", "toggles", "rate")
	for _, r := range order[:min(topN, len(order))] {
		fmt.Printf("%-28s %10d %7.1f%%\n", names[r], tog[r], 100*float64(tog[r])/float64(passes))
	}
}

// printProfile renders the compile-stage breakdown and the hot-layer
// table from the trace's aggregated span statistics.
func printProfile(tr *obs.Trace, topN int) {
	stats := tr.StatsByName()
	var stages, layers []obs.NameStat
	for _, s := range stats {
		if strings.HasPrefix(s.Name, "layer ") {
			layers = append(layers, s)
		} else {
			stages = append(stages, s)
		}
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].Total > stages[j].Total })
	fmt.Printf("%-14s %8s %12s %12s\n", "stage", "count", "total", "mean")
	for _, s := range stages {
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = s.Total / time.Duration(s.Count)
		}
		fmt.Printf("%-14s %8d %12s %12s\n", s.Name, s.Count,
			s.Total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	if topN <= 0 || len(layers) == 0 {
		return
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Total > layers[j].Total })
	if len(layers) > topN {
		layers = layers[:topN]
	}
	fmt.Printf("\nhot layers (top %d of %d by total time):\n", len(layers), len(stats)-len(stages))
	fmt.Printf("%-28s %8s %12s %12s\n", "layer", "count", "total", "mean")
	for _, s := range layers {
		mean := s.Total / time.Duration(s.Count)
		fmt.Printf("%-28s %8d %12s %12s\n", s.Name, s.Count,
			s.Total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
}
