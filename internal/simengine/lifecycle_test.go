package simengine

import (
	"bytes"
	"runtime"
	"testing"

	"c2nn/internal/obs"
)

// Engine lifecycle under profiling: with a live sink attached, Step /
// Close / Reset / Forward-after-Close must neither leak open spans nor
// touch a closed engine's resources, on every backend.
func TestEngineLifecycleWithTrace(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	for _, prec := range []Precision{Float32, Int32, BitPacked} {
		t.Run(prec.String(), func(t *testing.T) {
			tr := obs.New()
			eng, err := New(model, Options{Batch: 8, Workers: 2, Precision: prec, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Trace() != tr {
				t.Error("Trace() must return the attached sink")
			}
			for i := 0; i < 4; i++ {
				eng.Step()
			}
			eng.Reset()
			eng.Step()
			if n := tr.OpenSpans(); n != 0 {
				t.Errorf("%d spans still open after quiescing", n)
			}

			eng.Close()
			eng.Close() // idempotent

			// A closed engine still runs Forward (the pool falls back to
			// inline execution) and must keep recording cleanly.
			eng.Forward()
			if n := tr.OpenSpans(); n != 0 {
				t.Errorf("%d spans open after post-Close Forward", n)
			}

			spans := tr.Spans()
			var forwards, layers int
			for _, s := range spans {
				if s.Open {
					t.Errorf("span %q leaked open", s.Name)
				}
				switch {
				case s.Name == "forward":
					forwards++
				case len(s.Name) > 6 && s.Name[:6] == "layer ":
					layers++
				}
			}
			// 4 steps + 1 step + 1 post-close forward = 6 forward spans.
			if forwards != 6 {
				t.Errorf("forward spans = %d, want 6", forwards)
			}
			if layers != 6*len(eng.Plan().Layers) {
				t.Errorf("layer spans = %d, want %d", layers, 6*len(eng.Plan().Layers))
			}
			if tr.Counter("exec.dispatch.threshold").Value()+
				tr.Counter("exec.dispatch.linear").Value() != int64(layers) {
				t.Error("dispatch counters must sum to the layer span count")
			}

			// Both exporters stay usable after Close.
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			if err := tr.WriteMetricsJSON(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Dropping an engine without Close must not wedge: the finalizer closes
// the pool, and the sink holds only closed spans.
func TestEngineFinalizerWithTrace(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	tr := obs.New()
	func() {
		eng, err := New(model, Options{Batch: 4, Precision: BitPacked, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		eng.Step()
	}()
	runtime.GC()
	runtime.GC() // let the finalizer run
	if n := tr.OpenSpans(); n != 0 {
		t.Errorf("%d spans open after engine was dropped", n)
	}
	for _, s := range tr.Spans() {
		if s.Open {
			t.Errorf("span %q leaked open", s.Name)
		}
	}
}

// The arena counters recorded at plan time must match the plan the
// engine reports.
func TestPlanCountersWithTrace(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	tr := obs.New()
	eng, err := New(model, Options{Batch: 4, Precision: Float32, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fresh := tr.Counter("plan.arena.slots_fresh").Value()
	// The arena pre-reserves the PI block outside alloc, so fresh growth
	// accounts for everything else — bounded by the arena size.
	if fresh <= 0 || fresh > int64(eng.Plan().ArenaUnits) {
		t.Errorf("slots_fresh = %d, want in (0, %d]", fresh, eng.Plan().ArenaUnits)
	}

	// KeepAllActivations disables reuse entirely.
	tr2 := obs.New()
	eng2, err := New(model, Options{Batch: 4, Precision: Float32, KeepAllActivations: true, Trace: tr2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := tr2.Counter("plan.arena.slots_reused").Value(); got != 0 {
		t.Errorf("slots_reused with KeepAllActivations = %d, want 0", got)
	}
}
