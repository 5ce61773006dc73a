package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"c2nn"
	"c2nn/internal/compile"
	"c2nn/internal/exec/analyze"
	"c2nn/internal/exec/backend"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// runProfile implements the "c2nn profile" subcommand: compile a
// circuit with the observability sink attached, drive the engine for a
// number of cycles, and report where the time went — a per-stage
// compile breakdown, the hottest layer kernels, and the run's
// throughput. -trace exports a Chrome trace (chrome://tracing /
// Perfetto), -metrics the flat counter/gauge/histogram dump.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("c2nn profile", flag.ExitOnError)
	var (
		circuit   = fs.String("circuit", "", "profile a built-in benchmark circuit (case-insensitive)")
		tbPath    = fs.String("tb", "", "testbench script to replay (the circuit is inferred from the file name unless -circuit is given)")
		lutSize   = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		backendF  = fs.String("backend", "bitpacked", "execution substrate: float32, int32 or bitpacked")
		cycles    = fs.Int("cycles", 256, "random-stimulus clock cycles to drive (after the -tb script, if any)")
		batch     = fs.Int("batch", 256, "engine batch size (stimulus lanes)")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		seed      = fs.Int64("seed", 1, "random-stimulus seed")
		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
		metrOut   = fs.String("metrics", "", "write the metrics dump as JSON")
		topN      = fs.Int("top", 10, "hot-layer table size (0 hides it)")
		activityF = fs.Bool("activity", false, "enable activity-driven execution and report skip rate and per-root toggle rates")
		maxSpans  = fs.Int("max-spans", obs.DefaultMaxSpans, "span arena capacity; spans beyond it are dropped (and reported)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn profile [-circuit name | -tb script.tb] [-backend b] [-cycles n] [-batch n] [-trace out.json] [-metrics out.json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	src, err := target(*circuit, *tbPath, "", nil)
	if err != nil {
		return err
	}
	prec, err := backend.ParseKind(*backendF)
	if err != nil {
		return err
	}
	var script *testbench.Script
	if *tbPath != "" {
		src, err := os.ReadFile(*tbPath)
		if err != nil {
			return err
		}
		script, err = testbench.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", *tbPath, err)
		}
	}

	tr := obs.NewWithLimit(*maxSpans)
	cres, err := compile.Run(src, compile.Options{L: *lutSize, Trace: tr}, nil)
	if err != nil {
		return err
	}
	model := cres.Model
	eng, err := c2nn.NewEngine(model, c2nn.EngineOptions{
		Batch:     *batch,
		Workers:   *workers,
		Precision: prec,
		Activity:  *activityF,
		Trace:     tr,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	// With -activity the engine skips clean clusters; the probe samples
	// the same root diff after every step to attribute the dirtiness to
	// individual roots (the toggle table below).
	var probe *analyze.Probe
	if *activityF {
		probe, err = analyze.NewProbe(eng)
		if err != nil {
			return err
		}
	}
	sample := func() {
		if probe != nil {
			probe.Sample()
		}
	}

	rsp := tr.Begin("run").
		SetStr("circuit", src.Name).
		SetStr("backend", prec.String()).
		SetInt("batch", int64(*batch))
	driven := 0
	if script != nil {
		res, err := script.RunOpts(eng, testbench.RunOptions{
			Trace: func(int) error { sample(); return nil },
		})
		if err != nil {
			return fmt.Errorf("profile: replaying %s: %w", *tbPath, err)
		}
		driven += res.Steps
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(*seed))
	bits := make([]bool, 0, 128)
	vals := make([]uint64, *batch)
	for cyc := 0; cyc < *cycles; cyc++ {
		for _, in := range model.Inputs {
			w := len(in.Units)
			if w > 64 {
				for lane := 0; lane < *batch; lane++ {
					bits = bits[:0]
					for i := 0; i < w; i++ {
						bits = append(bits, rng.Intn(2) == 1)
					}
					if err := eng.SetInputBits(in.Name, lane, bits); err != nil {
						return err
					}
				}
				continue
			}
			for lane := range vals {
				v := rng.Uint64()
				if w < 64 {
					v &= 1<<uint(w) - 1
				}
				vals[lane] = v
			}
			if err := eng.SetInput(in.Name, vals); err != nil {
				return err
			}
		}
		eng.Step()
		sample()
		driven++
	}
	elapsed := time.Since(start)
	rsp.SetInt("cycles", int64(driven)).End()

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
	if probe != nil {
		printActivity(eng, probe, *topN)
	}
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr,
			"\nWARNING: %d spans were DROPPED at the %d-span cap — per-layer totals above undercount the run.\n"+
				"         Raise the cap with -max-spans, shorten the run (-cycles), or profile fewer layers.\n",
			dropped, *maxSpans)
	}
	gcs := simengine.Throughput(model.GateCount, *cycles, *batch, elapsed)
	fmt.Printf("\n%s (L=%d, %s): %d cycles x %d lanes in %s = %.3g gates·cycles/s\n",
		src.Name, *lutSize, prec, driven, *batch,
		elapsed.Round(time.Millisecond), gcs)
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
// table of an -activity run: which ports and flip-flops kept clusters
// dirty, busiest first.
func printActivity(eng *c2nn.Engine, probe *analyze.Probe, topN int) {
	dirty, skipped := eng.ActivityCounters()
	rate := 0.0
	if tot := dirty + skipped; tot > 0 {
		rate = float64(skipped) / float64(tot)
	}
	st := probe.Stats()
	fmt.Printf("\nactivity: %d cluster dispatches skipped of %d (%.1f%%), dirty cost %.1f%% of static\n",
		skipped, dirty+skipped, 100*rate, 100*st.DirtyCostFraction)
	togs := probe.RootToggles()
	if topN > 0 && len(togs) > topN {
		togs = togs[:topN]
	}
	fmt.Printf("root toggle rates (top %d of %d):\n", len(togs), len(probe.RootToggles()))
	fmt.Printf("%-28s %10s %8s\n", "root", "toggles", "rate")
	for _, tg := range togs {
		fmt.Printf("%-28s %10d %7.1f%%\n", tg.Name, tg.Toggles, 100*tg.Rate)
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
