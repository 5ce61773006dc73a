package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

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
	s := sessionFlags(fs, "[-serve :addr] [-interval 1s] [-duration 30s] [-flight out.json]", "bitpacked", 256)
	var (
		interval = fs.Duration("interval", time.Second, "sampling / refresh interval")
		serve    = fs.String("serve", "", "serve telemetry over HTTP on this address (e.g. :9090 or 127.0.0.1:0)")
		duration = fs.Duration("duration", 0, "stop after this wall-clock time (0 runs until interrupted)")
		loops    = fs.Int("loops", 0, "stop after this many testbench replays, or random-stimulus cycles without -tb (0 is unbounded)")
		flight   = fs.String("flight", "", "write the flight-recorder Chrome trace here on exit (and on SIGQUIT)")
		flightN  = fs.Int("flight-events", obs.DefaultFlightEvents, "flight-recorder ring capacity")
		history  = fs.Int("history", obs.DefaultSampleCapacity, "sampler time-series ring capacity")
		plain    = fs.Bool("plain", false, "append table snapshots instead of redrawing in place (for logs/CI)")
		quiet    = fs.Bool("quiet", false, "suppress the periodic table entirely")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr := obs.New()
	rec := obs.NewFlightRecorder(*flightN)
	tr.AttachFlightRecorder(rec)
	if err := s.open("", fs.Args(), tr); err != nil {
		return err
	}
	s.opts.Activity, s.opts.Stats = true, true
	if err := s.start(); err != nil {
		return err
	}
	eng := s.eng
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
			printWatchTable(eng, tr, s.name, s.opts.Precision.String(), replays, *plain, *quiet)
		default:
		}
		return stopped
	}

	fmt.Fprintf(os.Stderr, "watch: %s (L=%d, %s, batch %d) — ctrl-c stops, SIGQUIT dumps the flight recorder\n",
		s.name, s.model.L, s.opts.Precision, eng.Batch())

	// With a testbench one drive is one replay; without, one drive is the
	// whole run and every random-stimulus cycle counts as a replay.
	cycles := 0
	if s.script == nil {
		if cycles = *loops; cycles == 0 {
			cycles = math.MaxInt
		}
	}
	stepped := func() error {
		if s.script == nil {
			replays++
		}
		if shouldStop() {
			return errStop
		}
		return nil
	}
	// Open the first stats window now, so even a run shorter than
	// -interval ends on a table with real rates.
	eng.StatsSnapshot()
	for !shouldStop() && (*loops == 0 || replays < *loops) {
		if _, err := s.drive(cycles, nil, stepped); err != nil {
			dumpFlight("error")
			return err
		}
		if s.script != nil {
			// Re-arm the script for the next replay: the testbench
			// assumes reset state, and the wipe is an activity
			// invalidation the flight recorder logs.
			eng.Reset()
			replays++
		}
	}

	sampler.TakeSample()
	printWatchTable(eng, tr, s.name, s.opts.Precision.String(), replays, true, *quiet)
	dumpFlight("exit")
	return nil
}

// printWatchTable renders one refresh of the live stats table. With
// plain=false it homes the cursor and clears the screen first, so the
// table redraws in place on a terminal.
func printWatchTable(eng *simengine.Engine, tr *obs.Trace, circuit, backendName string, replays int, plain, quiet bool) {
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
