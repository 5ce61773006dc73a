package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"c2nn"
	"c2nn/internal/compile"
	"c2nn/internal/exec/backend"
	"c2nn/internal/obs"
	"c2nn/internal/testbench"
)

// errWatchStop is the sentinel the replay trace hook returns to unwind
// a testbench run cleanly when the watch deadline or a signal fires.
var errWatchStop = errors.New("watch: stop requested")

// runWatch implements the "c2nn watch" subcommand: attach the
// continuous-telemetry layer (sampler, flight recorder, HTTP server)
// to an engine replaying a testbench in a loop — the long-running
// simulation monitor. The terminal shows a refreshing stats table;
// -serve exposes /metrics (Prometheus), /healthz, /samples.json,
// /flight.json and /debug/pprof for scrapes and live profiling.
// SIGQUIT dumps the flight recorder without stopping the run; SIGINT
// (or -duration) stops it, writing the -flight dump on the way out.
func runWatch(args []string) error {
	fs := flag.NewFlagSet("c2nn watch", flag.ExitOnError)
	var (
		circuit  = fs.String("circuit", "", "watch a built-in benchmark circuit (case-insensitive)")
		tbPath   = fs.String("tb", "", "testbench script to replay in a loop (the circuit is inferred from the file name unless -circuit is given)")
		lutSize  = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		backendF = fs.String("backend", "bitpacked", "execution substrate: float32, int32 or bitpacked")
		batch    = fs.Int("batch", 256, "engine batch size (stimulus lanes)")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		interval = fs.Duration("interval", time.Second, "sampling / refresh interval")
		serve    = fs.String("serve", "", "serve telemetry over HTTP on this address (e.g. :9090 or 127.0.0.1:0)")
		duration = fs.Duration("duration", 0, "stop after this wall-clock time (0 runs until interrupted)")
		loops    = fs.Int("loops", 0, "stop after this many testbench replays (0 is unbounded)")
		flight   = fs.String("flight", "", "write the flight-recorder Chrome trace here on exit (and on SIGQUIT)")
		flightN  = fs.Int("flight-events", obs.DefaultFlightEvents, "flight-recorder ring capacity")
		history  = fs.Int("history", obs.DefaultSampleCapacity, "sampler time-series ring capacity")
		seed     = fs.Int64("seed", 1, "random-stimulus seed (no-testbench runs)")
		plain    = fs.Bool("plain", false, "append table snapshots instead of redrawing in place (for logs/CI)")
		quiet    = fs.Bool("quiet", false, "suppress the periodic table entirely")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn watch [-circuit name | -tb script.tb] [-serve :addr] [-interval 1s] [-duration 30s] [-flight out.json]")
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

	tr := obs.New()
	rec := obs.NewFlightRecorder(*flightN)
	tr.AttachFlightRecorder(rec)
	cres, err := compile.Run(src, compile.Options{L: *lutSize, Trace: tr}, nil)
	if err != nil {
		return err
	}
	model := cres.Model
	eng, err := c2nn.NewEngine(model, c2nn.EngineOptions{
		Batch:     *batch,
		Workers:   *workers,
		Precision: prec,
		Activity:  true,
		Stats:     true,
		Trace:     tr,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	sampler := obs.NewSampler(tr, *interval, *history)
	sampler.Start()
	defer sampler.Stop()

	if *serve != "" {
		srv := obs.NewServer(tr, obs.ServerOptions{Sampler: sampler, Recorder: rec})
		addr, err := srv.Start(*serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "watch: telemetry on http://%s/metrics (healthz, samples.json, flight.json, debug/pprof)\n", addr)
	}

	dumpFlight := func(reason string) {
		if *flight == "" {
			return
		}
		if err := writeFileWith(*flight, rec.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "watch: flight dump (%s): %v\n", reason, err)
			return
		}
		fmt.Fprintf(os.Stderr, "watch: flight recorder (%d events) dumped to %s (%s)\n",
			rec.Len(), *flight, reason)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)

	var deadline <-chan time.Time
	if *duration > 0 {
		t := time.NewTimer(*duration)
		defer t.Stop()
		deadline = t.C
	}
	render := time.NewTicker(*interval)
	defer render.Stop()

	stopped := false
	replays := 0
	shouldStop := func() bool {
		if stopped {
			return true
		}
		select {
		case <-stop:
			stopped = true
		case <-deadline:
			stopped = true
		case <-quit:
			dumpFlight("SIGQUIT")
		case <-render.C:
			printWatchTable(eng, tr, src.Name, prec.String(), replays, *plain, *quiet)
		default:
		}
		return stopped
	}

	fmt.Fprintf(os.Stderr, "watch: %s (L=%d, %s, batch %d) — ctrl-c stops, SIGQUIT dumps the flight recorder\n",
		src.Name, *lutSize, prec, *batch)

	rng := rand.New(rand.NewSource(*seed))
	vals := make([]uint64, *batch)
	bits := make([]bool, 0, 128)
	for !shouldStop() && (*loops == 0 || replays < *loops) {
		if script != nil {
			_, err := script.RunOpts(eng, testbench.RunOptions{
				Trace: func(int) error {
					if shouldStop() {
						return errWatchStop
					}
					return nil
				},
			})
			if err != nil && !errors.Is(err, errWatchStop) {
				dumpFlight("error")
				return fmt.Errorf("watch: replaying %s: %w", *tbPath, err)
			}
			// Re-arm the script for the next replay: the testbench
			// assumes reset state, and the wipe is an activity
			// invalidation the flight recorder logs.
			eng.Reset()
		} else {
			// No testbench: drive random stimuli, one cycle per loop.
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
		}
		replays++
	}

	sampler.TakeSample()
	printWatchTable(eng, tr, src.Name, prec.String(), replays, true, *quiet)
	dumpFlight("exit")
	return nil
}

// printWatchTable renders one refresh of the live stats table. With
// plain=false it homes the cursor and clears the screen first, so the
// table redraws in place on a terminal.
func printWatchTable(eng *c2nn.Engine, tr *c2nn.Trace, circuit, backendName string, replays int, plain, quiet bool) {
	// Snapshot before the quiet check: snapshotting is what publishes
	// the engine.* gauges to the registry, and -quiet runs (the CI
	// scrape test) still want them on /metrics.
	s, ok := eng.StatsSnapshot()
	if !ok || quiet {
		return
	}
	var b strings.Builder
	if !plain {
		b.WriteString("\x1b[H\x1b[2J")
	}
	fmt.Fprintf(&b, "c2nn watch — %s on %s, batch %d, %d workers, %s arena\n",
		circuit, backendName, s.Batch, s.Workers, fmtBytes(s.ArenaBytes))
	fmt.Fprintf(&b, "%-22s %12d    %-18s %12d\n", "cycles", s.Cycles, "replays", replays)
	fmt.Fprintf(&b, "%-22s %12.0f    %-18s %12.0f\n", "cycles/s (ewma)", s.CyclesPerSec, "cycles/s (window)", s.WindowCyclesPerSec)
	fmt.Fprintf(&b, "%-22s %12s    %-18s %12s\n", "pass p50", fmtNS(int64(s.PassNS.Quantile(0.5))), "pass p99", fmtNS(int64(s.PassNS.Quantile(0.99))))
	fmt.Fprintf(&b, "%-22s %12s    %-18s %11.1f%%\n", "pass mean", fmtNS(s.AvgPassNS), "lane util", s.LaneUtilPct)
	fmt.Fprintf(&b, "%-22s %11.1f%%    %-18s %5d/%d\n", "skip rate (window)", s.SkipRatePct, "dirty/skipped win", s.WindowDirty, s.WindowSkipped)
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(&b, "%-22s %12d    (raise the span cap or trim the run)\n", "DROPPED SPANS", dropped)
	}
	if len(s.BusiestRoots) > 0 {
		fmt.Fprintf(&b, "busiest roots:")
		for _, r := range s.BusiestRoots {
			fmt.Fprintf(&b, "  %s ×%d", r.Name, r.WindowToggles)
		}
		b.WriteByte('\n')
	}
	os.Stdout.WriteString(b.String())
}

// fmtNS renders a nanosecond count human-readably.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// fmtBytes renders a byte count human-readably.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
