package bench

import (
	"runtime"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

const (
	// telemetryChunk is the timing granule inside a leg, in steps:
	// per-step times come from the fastest chunk, not the whole-leg
	// wall clock.
	telemetryChunk = 32
	// telemetryWarmup steps run before a leg's clock starts.
	telemetryWarmup = 64
	// telemetryReps interleaves off/on leg pairs this many times; each
	// leg keeps the rep with the fastest chunk.
	telemetryReps = 5
)

// telemetryLeg is one timed run of the engine with the telemetry layer
// fully off or fully on.
type telemetryLeg struct {
	steps         int
	nsPerStep     float64
	allocsPerStep float64
	samplerPassNS float64
	samplerGCS    float64
}

// runTelemetry measures the continuous-telemetry layer's overhead on
// the bit-packed substrate: the same engine and stimulus stream timed
// with the layer fully off and fully on (stats snapshotting, metric
// registry, flight recorder, sampler). The off leg must be
// allocation-free on the hot path; the on leg must cost at most about
// one percent of wall clock — the two properties the suite's gates
// assert. overhead_pct is 100·(on−off)/off over the steady-state
// minima; a negative value means the difference drowned in noise.
// sampler_pass_ns and sampler_gcs are derived from the on leg's sampler
// window the way `c2nn watch` and /samples.json consumers do it.
func runTelemetry(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		res, err := Compile(c, compile.Options{L: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		stim := NewStimulusSet(res.Model, 64, e.Batch, e.Seed)
		var best [2]telemetryLeg // off, on
		for r := 0; r < telemetryReps; r++ {
			// Alternate which leg runs first so slow machine drift
			// (thermal throttling, co-tenants) hits both legs equally.
			for _, on := range []int{r % 2, 1 - r%2} {
				leg, err := telemetryRun(e, res, stim, on == 1)
				if err != nil {
					return err
				}
				if best[on].steps == 0 || leg.nsPerStep < best[on].nsPerStep {
					best[on] = leg
				}
			}
		}
		off, on := best[0], best[1]
		pt := out.at(c.Name, l).on(simengine.BitPacked.String())
		pt.count("gates", int64(res.Netlist.GateCount()))
		pt.count("steps", int64(off.steps))
		pt.count("reps", telemetryReps)
		pt.put("ns_per_step_off", off.nsPerStep, "ns")
		pt.put("ns_per_step_on", on.nsPerStep, "ns")
		pt.put("overhead_pct", 100*(on.nsPerStep-off.nsPerStep)/off.nsPerStep, "%")
		pt.put("allocs_per_step_off", off.allocsPerStep, "allocs")
		pt.put("allocs_per_step_on", on.allocsPerStep, "allocs")
		pt.put("sampler_pass_ns", on.samplerPassNS, "ns")
		pt.put("sampler_gcs", on.samplerGCS, "g*c/s")
		e.logf("[%s] off %.0f ns/step, on %.0f ns/step, allocs/step off=%.3g on=%.3g, sampler pass %.0f ns",
			c.Name, off.nsPerStep, on.nsPerStep, off.allocsPerStep, on.allocsPerStep, on.samplerPassNS)
		return nil
	})
}

// telemetryRun times one leg. Both legs run the identical stimulus loop
// on an activity-enabled engine; the on leg additionally carries the
// full telemetry stack — stats snapshotting, a metric registry, a
// flight recorder, and a sampler whose samples bracket the timed region
// (taken outside it, as a scraping sidecar would).
func telemetryRun(e *Env, res *CompileResult, stim *StimulusSet, enabled bool) (telemetryLeg, error) {
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
		Batch: e.Batch, Precision: simengine.BitPacked, Activity: true, Stats: enabled, Trace: tr,
	})
	if err != nil {
		return telemetryLeg{}, err
	}
	defer eng.Close()
	step := stim.drive(eng)
	chunk := func() error {
		for i := 0; i < telemetryChunk; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < telemetryWarmup; i++ {
		if err := step(); err != nil {
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
	t, err := measure(e.MinMeasure, chunk)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return telemetryLeg{}, err
	}
	if sampler != nil {
		s1 = sampler.TakeSample()
	}

	leg := telemetryLeg{steps: t.n * telemetryChunk}
	leg.nsPerStep = float64(t.best.Nanoseconds()) / telemetryChunk
	leg.allocsPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(leg.steps)
	if sampler != nil {
		h0, h1 := s0.Histograms["engine.pass_ns"], s1.Histograms["engine.pass_ns"]
		if dc := h1.Count - h0.Count; dc > 0 {
			leg.samplerPassNS = float64(h1.Sum-h0.Sum) / float64(dc)
			if span := s1.Time.Sub(s0.Time); span > 0 {
				leg.samplerGCS = simengine.Throughput(res.Model.GateCount, int(dc), e.Batch, span)
			}
		}
	}
	return leg, nil
}
