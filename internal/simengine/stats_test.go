package simengine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"c2nn/internal/compile"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/synth"
)

// A reader's window is the difference of two snapshots it took: the
// lifetime counters partition exactly into consecutive windows.
func TestStatsSnapshotCountsAndWindows(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	tr := obs.New()
	e, err := New(model, Options{Batch: 4, Workers: 1, Stats: true, Activity: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.SetInputUniform("rst", 1)
	e.Step()
	s1, ok := e.StatsSnapshot()
	if !ok {
		t.Fatal("snapshot unavailable")
	}
	if s1.Passes != 1 || s1.Cycles != 1 {
		t.Errorf("passes/cycles = %d/%d, want 1/1", s1.Passes, s1.Cycles)
	}
	if s1.PassNS.Count != 1 {
		t.Errorf("pass histogram count = %d, want 1", s1.PassNS.Count)
	}
	if s1.ArenaBytes <= 0 || s1.Batch != 4 || s1.Workers != 1 {
		t.Errorf("shape fields = %+v", s1)
	}

	e.SetInputUniform("rst", 0)
	e.SetInputUniform("en", 1)
	for i := 0; i < 9; i++ {
		e.SetInputUniform("din", uint64(i*37))
		e.Step()
	}
	s2, _ := e.StatsSnapshot()
	if s2.Passes != 10 || s2.Cycles != 10 {
		t.Errorf("passes/cycles = %d/%d, want 10/10", s2.Passes, s2.Cycles)
	}
	if s2.AvgPassNS <= 0 || s2.AvgPassNS != s2.PassNS.Sum/s2.Passes {
		t.Errorf("avg pass ns = %d, want PassNS.Sum/Passes > 0", s2.AvgPassNS)
	}
	// One dirty-or-skipped decision per cluster per pass.
	clusters := int64(len(e.Plan().Clusters.Clusters))
	if got := (s2.DirtyClusters + s2.SkippedClusters) - (s1.DirtyClusters + s1.SkippedClusters); got != 9*clusters {
		t.Errorf("activity window = %d cluster decisions, want %d", got, 9*clusters)
	}
	if s2.DirtyClusters != tr.Counter("exec.cluster.dirty").Value() ||
		s2.SkippedClusters != tr.Counter("exec.cluster.skipped").Value() {
		t.Error("snapshot activity tallies differ from the exec.cluster.* counters")
	}
	// The arena gauge is set once, at creation.
	if tr.Gauge("engine.arena_bytes").Value() != s2.ArenaBytes {
		t.Error("engine.arena_bytes gauge not published")
	}
}

// TestStatsSnapshotIsARead: snapshotting changes nothing, so readers
// cannot disturb each other's windows, and every lifetime field has
// one source — the pass histogram and the cycle counter.
func TestStatsSnapshotIsARead(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	tr := obs.New()
	e, err := New(model, Options{Batch: 4, Workers: 1, Stats: true, Activity: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetInputUniform("en", 1)
	for i := 0; i < 5; i++ {
		e.SetInputUniform("din", uint64(i*11))
		e.Step()
	}

	lifetime := func(s StatsSnapshot) StatsSnapshot { s.Time = time.Time{}; return s }
	a, _ := e.StatsSnapshot()
	b, _ := e.StatsSnapshot()
	if !reflect.DeepEqual(lifetime(a), lifetime(b)) {
		t.Errorf("back-to-back snapshots differ:\n%+v\n%+v", a, b)
	}
	if a.Passes != a.PassNS.Count {
		t.Errorf("passes %d != pass histogram count %d", a.Passes, a.PassNS.Count)
	}
	if got := tr.Counter("engine.cycles").Value(); got != a.Cycles {
		t.Errorf("engine.cycles counter = %d, snapshot cycles = %d", got, a.Cycles)
	}

	// Reader 1 opens a window at a; reader 2 snapshots mid-window; reader
	// 1's window still spans every step since a.
	e.Step()
	e.StatsSnapshot()
	e.Step()
	c, _ := e.StatsSnapshot()
	if c.Cycles-a.Cycles != 2 || c.Passes-a.Passes != 2 {
		t.Errorf("window after a second reader = %d cycles / %d passes, want 2/2", c.Cycles-a.Cycles, c.Passes-a.Passes)
	}

	// A concurrent reader sees monotone lifetime counters while the
	// engine steps (run under -race).
	done := make(chan struct{})
	errc := make(chan string, 1)
	go func() {
		defer close(errc)
		var last StatsSnapshot
		for {
			s, _ := e.StatsSnapshot()
			if s.Cycles < last.Cycles || s.Passes < last.Passes || s.DirtyClusters < last.DirtyClusters {
				errc <- fmt.Sprintf("counters went backwards: %+v after %+v", s, last)
				return
			}
			last = s
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < 200; i++ {
		e.SetInputUniform("din", uint64(i))
		e.Step()
	}
	close(done)
	if msg, ok := <-errc; ok {
		t.Error(msg)
	}
	if s, _ := e.StatsSnapshot(); s.Cycles != c.Cycles+200 {
		t.Errorf("cycles = %d, want %d", s.Cycles, c.Cycles+200)
	}
}

func TestStatsDisabled(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	e, err := New(model, Options{Batch: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	if _, ok := e.StatsSnapshot(); ok {
		t.Error("snapshot available without Options.Stats")
	}
}

func TestStatsWithoutTrace(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	e, err := New(model, Options{Batch: 2, Workers: 1, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	e.Step()
	s, ok := e.StatsSnapshot()
	if !ok || s.Cycles != 2 || s.PassNS.Count != 2 {
		t.Errorf("traceless stats = %+v (ok %v), want 2 cycles", s, ok)
	}
}

// forceOverlay pins one unit's lane 0 — the minimal simengine.Overlay.
type forceOverlay struct{ unit int32 }

func (o forceOverlay) Apply(e *Engine, layer int) {
	if layer == -1 {
		e.PokeUnit(o.unit, 0, true)
	}
}

// Acceptance: a flight-recorder dump taken after a mid-run overlay
// install is valid Chrome trace JSON containing the overlay event.
func TestOverlayEventInFlightDump(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	tr := obs.New()
	fr := obs.NewFlightRecorder(256)
	tr.AttachFlightRecorder(fr)
	e, err := New(model, Options{Batch: 2, Workers: 1, KeepAllActivations: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.SetInputUniform("rst", 1)
	e.Step()
	e.SetInputUniform("rst", 0)
	e.Step()
	if err := e.WithFaults(forceOverlay{unit: model.Inputs[0].Units[0]}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	if err := e.WithFaults(nil); err != nil {
		t.Fatal(err)
	}
	e.Step()

	var buf bytes.Buffer
	if err := fr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"engine/create":           false,
		"overlay/overlay.install": false,
		"overlay/overlay.remove":  false,
		"engine/poke":             false,
		"span/forward":            false,
	}
	for _, ev := range dump.TraceEvents {
		if key := ev.Cat + "/" + ev.Name; !want[key] {
			if _, tracked := want[key]; tracked {
				want[key] = true
			}
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("flight dump missing %s event", key)
		}
	}
}

// TestStepDoesNotAllocate is the zero-allocation gate in tier-1: with
// stats and tracing disabled a cycle allocates nothing, on every
// backend, with the layers run inline or dispatched to the pool.
func TestStepDoesNotAllocate(t *testing.T) {
	src, err := compile.Builtin("UART")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Run(src, compile.Options{L: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stim := NewStimulus(res.Model, 256, 1)
	inputs := stim.Next(nil)
	for _, prec := range []Precision{Float32, Int32, BitPacked} {
		for _, workers := range []int{1, 2} {
			e, err := New(res.Model, Options{Precision: prec, Batch: 256, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := stim.Load(e, inputs); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, e.Step); allocs != 0 {
				t.Errorf("%v, %d workers: Step allocates %.0f times per cycle, want 0", prec, workers, allocs)
			}
			e.Close()
		}
	}
}

// BenchmarkStepStatsOff is the baseline BenchmarkStepStatsOn
// is read against; TestStepDoesNotAllocate holds the zero-alloc bar.
func BenchmarkStepStatsOff(b *testing.B) {
	model := benchModel(b)
	e, err := New(model, Options{Batch: 64, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.SetInputUniform("rst", 0)
	e.SetInputUniform("en", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkStepStatsOn measures the stats overhead (one histogram
// observe per pass and one counter add per cycle).
func BenchmarkStepStatsOn(b *testing.B) {
	model := benchModel(b)
	e, err := New(model, Options{Batch: 64, Workers: 1, Stats: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.SetInputUniform("rst", 0)
	e.SetInputUniform("en", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func benchModel(b *testing.B) *nn.Model {
	b.Helper()
	nl, err := synth.ElaborateSource("crc8", map[string]string{"crc8.v": crcSrc})
	if err != nil {
		b.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: 4})
	if err != nil {
		b.Fatal(err)
	}
	return model
}
