package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// TelemetryRow is one circuit's telemetry-overhead measurement: the same
// engine, stimulus stream and step count timed twice — once with the
// continuous-telemetry layer fully off, once with it fully on (stats
// snapshotting, metric registry, flight recorder, sampler). The off leg
// must be allocation-free on the hot path; the on leg must cost at most
// about one percent of wall-clock — the properties the CI regression
// gate asserts via check_bench_regression.sh -telemetry.
type TelemetryRow struct {
	Circuit string `json:"circuit"`
	L       int    `json:"l"`
	Gates   int    `json:"gates"`
	Batch   int    `json:"batch"`
	Steps   int    `json:"steps"`
	Reps    int    `json:"reps"`
	// Per-step time of each leg: the fastest sustained timing chunk
	// across Reps interleaved runs (minimum-of-chunks, because
	// interference only ever adds time).
	NSPerStepOff float64 `json:"ns_per_step_off"`
	NSPerStepOn  float64 `json:"ns_per_step_on"`
	// OverheadPct is 100 * (on - off) / off over those steady-state
	// minima; negative values mean the difference drowned in noise.
	OverheadPct float64 `json:"overhead_pct"`
	// Heap allocations per step in the timed region of each leg.
	AllocsPerStepOff float64 `json:"allocs_per_step_off"`
	AllocsPerStepOn  float64 `json:"allocs_per_step_on"`
	// SamplerPassNS is the steady-state forward-pass time derived from
	// the sampler time series of the on leg: the engine.pass_ns
	// histogram's sum/count delta between the two samples bracketing
	// the measured window — the same arithmetic `c2nn watch` and the
	// /samples.json consumers do.
	SamplerPassNS float64 `json:"sampler_pass_ns"`
	// SamplerGCS is the on leg's throughput in gates·cycles/s derived
	// from the sampler window (pass-count delta over wall-clock span),
	// dimensionally comparable to bitpacked_gcs in BENCH_baseline.json.
	SamplerGCS float64 `json:"sampler_gcs"`
}

// TelemetryConfig tunes the overhead measurement.
type TelemetryConfig struct {
	L       int
	Batch   int
	Workers int // 0 = GOMAXPROCS
	// Steps per timed leg and warm-up steps before it.
	Steps  int
	Warmup int
	// Reps interleaves off/on leg pairs this many times (alternating
	// which leg runs first); each leg's per-step time is its fastest
	// chunk, and the kept value is the minimum across reps.
	Reps      int
	Seed      int64
	Precision simengine.Precision
}

// DefaultTelemetryConfig measures the packed substrate at the paper's
// L=7 with enough steps for the sampler window to be steady-state.
func DefaultTelemetryConfig() TelemetryConfig {
	return TelemetryConfig{
		L:         7,
		Batch:     256,
		Steps:     256,
		Warmup:    64,
		Reps:      5,
		Seed:      1,
		Precision: simengine.BitPacked,
	}
}

// telemetryChunkSteps is the timing granule inside a leg: per-step
// times come from the fastest chunk, not the whole-leg wall clock.
const telemetryChunkSteps = 32

// telemetryLeg is one timed run of cfg.Steps engine steps.
type telemetryLeg struct {
	nsPerStep     float64
	allocsPerStep float64
	samplerPassNS float64
	samplerGCS    float64
}

// RunTelemetry measures the telemetry layer's overhead on the named
// circuits (nil = all benchmark circuits).
func RunTelemetry(names []string, cfg TelemetryConfig, progress io.Writer) ([]TelemetryRow, error) {
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

	var rows []TelemetryRow
	for _, c := range list {
		res, err := Compile(c, compile.Options{L: cfg.L})
		if err != nil {
			return nil, err
		}
		stim := NewStimulusSet(res.Netlist, 64, cfg.Batch, cfg.Seed)
		row := TelemetryRow{
			Circuit: c.Name, L: cfg.L,
			Gates: res.Netlist.GateCount(), Batch: cfg.Batch,
			Steps: cfg.Steps, Reps: cfg.Reps,
		}
		best := func(a, b telemetryLeg) telemetryLeg {
			if a.nsPerStep == 0 || (b.nsPerStep > 0 && b.nsPerStep < a.nsPerStep) {
				return b
			}
			return a
		}
		var off, on telemetryLeg
		reps := cfg.Reps
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			// Alternate which leg runs first so slow machine drift
			// (thermal throttling, co-tenants) hits both legs equally.
			first, second := false, true
			if r%2 == 1 {
				first, second = true, false
			}
			l1, err := telemetryRun(res, stim, cfg, first)
			if err != nil {
				return nil, fmt.Errorf("%s (telemetry %v): %w", c.Name, first, err)
			}
			l2, err := telemetryRun(res, stim, cfg, second)
			if err != nil {
				return nil, fmt.Errorf("%s (telemetry %v): %w", c.Name, second, err)
			}
			lo, le := l1, l2
			if first {
				lo, le = l2, l1
			}
			off, on = best(off, lo), best(on, le)
		}
		row.NSPerStepOff = off.nsPerStep
		row.NSPerStepOn = on.nsPerStep
		row.AllocsPerStepOff = off.allocsPerStep
		row.AllocsPerStepOn = on.allocsPerStep
		row.SamplerPassNS = on.samplerPassNS
		row.SamplerGCS = on.samplerGCS
		if off.nsPerStep > 0 {
			row.OverheadPct = 100 * (on.nsPerStep - off.nsPerStep) / off.nsPerStep
		}
		logf("[%s] off %.0f ns/step, on %.0f ns/step (%+.2f%%), allocs/step off=%.3g on=%.3g, sampler pass %.0f ns (%.3g g·c/s)",
			c.Name, row.NSPerStepOff, row.NSPerStepOn, row.OverheadPct,
			row.AllocsPerStepOff, row.AllocsPerStepOn, row.SamplerPassNS, row.SamplerGCS)
		rows = append(rows, row)
	}
	return rows, nil
}

// telemetryRun times one leg. Both legs run the identical stimulus loop
// on an activity-enabled engine; the on leg additionally carries the
// full telemetry stack — stats snapshotting, a metric registry, a
// flight recorder, and a sampler whose samples bracket the timed region
// (taken outside it, as a scraping sidecar would).
func telemetryRun(res *CompileResult, stim *StimulusSet, cfg TelemetryConfig, enabled bool) (telemetryLeg, error) {
	var (
		tr      *obs.Trace
		sampler *obs.Sampler
	)
	if enabled {
		tr = obs.New()
		tr.AttachFlightRecorder(obs.NewFlightRecorder(obs.DefaultFlightEvents))
		sampler = obs.NewSampler(tr, time.Second, 16)
	}
	eng, err := simengine.New(res.Model, simengine.Options{
		Batch:     cfg.Batch,
		Workers:   cfg.Workers,
		Precision: cfg.Precision,
		Activity:  true,
		Stats:     enabled,
		Trace:     tr,
	})
	if err != nil {
		return telemetryLeg{}, err
	}
	defer eng.Close()

	drive := func(cycle int) error {
		sc := stim.Values[cycle%stim.Cycles]
		for p, name := range stim.Ports {
			if err := eng.SetInput(name, sc[p]); err != nil {
				return err
			}
		}
		eng.Step()
		return nil
	}
	for i := 0; i < cfg.Warmup; i++ {
		if err := drive(i); err != nil {
			return telemetryLeg{}, err
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	var s0, s1 obs.Sample
	if sampler != nil {
		s0 = sampler.TakeSample()
	}
	runtime.ReadMemStats(&m0)
	// Time the leg in small chunks and keep the fastest sustained
	// chunk: interference (GC, co-tenants, scheduler preemption) only
	// ever adds time, so the minimum converges on the true steady-state
	// cost — the resolution a one-percent bound needs on shared
	// hardware, where whole-leg wall clock swings by several percent.
	chunk := telemetryChunkSteps
	if chunk > cfg.Steps {
		chunk = cfg.Steps
	}
	bestChunk := time.Duration(0)
	for done := 0; done < cfg.Steps; {
		n := chunk
		if cfg.Steps-done < n {
			n = cfg.Steps - done
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := drive(cfg.Warmup + done + i); err != nil {
				return telemetryLeg{}, err
			}
		}
		elapsed := time.Since(start)
		if n == chunk && (bestChunk == 0 || elapsed < bestChunk) {
			bestChunk = elapsed
		}
		done += n
	}
	runtime.ReadMemStats(&m1)
	if sampler != nil {
		s1 = sampler.TakeSample()
	}

	leg := telemetryLeg{
		nsPerStep:     float64(bestChunk.Nanoseconds()) / float64(chunk),
		allocsPerStep: float64(m1.Mallocs-m0.Mallocs) / float64(cfg.Steps),
	}
	if sampler != nil {
		h0, h1 := s0.Histograms["engine.pass_ns"], s1.Histograms["engine.pass_ns"]
		if dc := h1.Count - h0.Count; dc > 0 {
			leg.samplerPassNS = float64(h1.Sum-h0.Sum) / float64(dc)
			if span := s1.Time.Sub(s0.Time); span > 0 {
				leg.samplerGCS = simengine.Throughput(res.Model.GateCount, int(dc), cfg.Batch, span)
			}
		}
	}
	return leg, nil
}

// FormatTelemetry renders the overhead measurement as an aligned table.
func FormatTelemetry(rows []TelemetryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %8s %6s | %11s %11s %8s | %10s %10s | %11s\n",
		"Circuit", "L", "Gates", "Batch",
		"off ns/st", "on ns/st", "ovh%",
		"alloc/off", "alloc/on", "smpl ns/pass")
	b.WriteString(strings.Repeat("-", 112) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %3d %8d %6d | %11.0f %11.0f %+7.2f%% | %10.3g %10.3g | %11.0f\n",
			r.Circuit, r.L, r.Gates, r.Batch,
			r.NSPerStepOff, r.NSPerStepOn, r.OverheadPct,
			r.AllocsPerStepOff, r.AllocsPerStepOn, r.SamplerPassNS)
	}
	return b.String()
}

// telemetryJSON is the envelope of WriteTelemetryJSON — the artifact
// check_bench_regression.sh -telemetry gates on.
type telemetryJSON struct {
	Meta Meta           `json:"meta"`
	Rows []TelemetryRow `json:"rows"`
}

// WriteTelemetryJSON writes the measurement as indented JSON.
func WriteTelemetryJSON(w io.Writer, rows []TelemetryRow) error {
	env := telemetryJSON{Meta: CollectMeta(), Rows: rows}
	if env.Rows == nil {
		env.Rows = []TelemetryRow{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
