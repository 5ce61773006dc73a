package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

func smokeEpisode(t *testing.T, name string, seed int64) *episode {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	prog, _, err := compileReference(w)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := buildEpisode(w, prog, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// The program may receive nothing but what the seed generates: the same
// seed must give the same stimulus and testbench text, another seed
// another.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"bulk-random", "tb-replay"} {
		a, b, c := smokeEpisode(t, name, 7), smokeEpisode(t, name, 7), smokeEpisode(t, name, 8)
		if !reflect.DeepEqual(a.cycles, b.cycles) || a.tb != b.tb || !reflect.DeepEqual(a.want, b.want) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if reflect.DeepEqual(a.cycles, c.cycles) {
			t.Errorf("%s: different seeds, same stimulus", name)
		}
		if name == "tb-replay" && (a.tb == "" || a.tb == c.tb) {
			t.Errorf("%s: different seeds, same testbench text", name)
		}
	}
}

func TestTransposeRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, batch := range []int{1, 63, 64, 65, 256} {
		for _, width := range []int{1, 8, 33, 64} {
			lanes := make([]uint64, batch)
			for i := range lanes {
				lanes[i] = rng.Uint64()
				if width < 64 {
					lanes[i] &= 1<<uint(width) - 1
				}
			}
			words := toBitMajor(lanes, width)
			if len(words) != (batch+63)/64 || len(words[0]) != width {
				t.Fatalf("batch %d width %d: %d words of %d bits", batch, width, len(words), len(words[0]))
			}
			if got := toLaneMajor(words, batch); !reflect.DeepEqual(got, lanes) {
				t.Errorf("batch %d width %d: round trip differs", batch, width)
			}
		}
	}
	// One known value: lane 65 carries 0b101.
	lanes := make([]uint64, 66)
	lanes[65] = 5
	words := toBitMajor(lanes, 3)
	if words[1][0] != 2 || words[1][1] != 0 || words[1][2] != 2 || words[0][0] != 0 {
		t.Errorf("lane 65 = 0b101 transposed to %v", words)
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if m := median(xs); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if m := median([]float64{4, 2}); m != 3 {
		t.Errorf("median of two = %v, want 3", m)
	}
	if xs[0] != 9 {
		t.Error("median reordered its argument")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}

	samples := make([]float64, minTailSamples-1)
	for i := range samples {
		samples[i] = float64(i)
	}
	if _, ok := tailP95(samples); ok {
		t.Errorf("p95 reported from %d samples", len(samples))
	}
	samples = append(samples, float64(len(samples)), float64(len(samples)+1))
	if p, ok := tailP95(samples); !ok || p != 0.95*200 {
		t.Errorf("p95 of 0..200 = %v, %v; want 190, true", p, ok)
	}

	if r := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); r < 0.9999 {
		t.Errorf("pearson of a line = %v", r)
	}
	if r := pearson([]float64{1, 1, 1}, []float64{2, 4, 6}); r != 0 {
		t.Errorf("pearson without variance = %v, want 0", r)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	off.end(off.begin("x", noSpan)) // a nil recorder records nothing
	rec := newRecorder("w")
	outer := rec.begin("outer", noSpan)
	inner := rec.begin("inner", outer)
	rec.end(inner)
	rec.end(outer)
	if rec.spans[inner].parent != outer || rec.total("inner") > rec.total("outer") {
		t.Errorf("spans do not nest: %+v", rec.spans)
	}
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 2 || file.TraceEvents[1].Args["workload"] != "w" {
		t.Errorf("trace = %s", buf.String())
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func sameDefs(t *testing.T, list string, declared, implemented []metricDef) {
	t.Helper()
	if len(declared) != len(implemented) {
		t.Errorf("%s: %d metrics declared, %d implemented", list, len(declared), len(implemented))
	}
	for i := 0; i < len(declared) && i < len(implemented); i++ {
		if declared[i] != implemented[i] {
			t.Errorf("%s[%d]: declared %+v, implemented %+v", list, i, declared[i], implemented[i])
		}
	}
}

// The smoke configuration of every workload, untraced and traced, must
// print exactly the metrics BENCHMARK.json declares — none missing,
// none extra — with the declared units, and pass its checks.
func TestSmokeMatchesContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, default -seconds = %v", c.RunSeconds, defaultSeconds)
	}
	sameDefs(t, "end_to_end", c.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", c.PerLayer, perLayer)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(c.Workloads), len(workloads))
	}

	cfg := runConfig{seed: 1, seconds: 0.05}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, c.Workloads[i], w.name, w.why)
		}
		for _, traced := range []bool{false, true} {
			defs := c.EndToEnd
			if traced {
				defs = c.PerLayer
			}
			res, _, err := runWorkload(w.smoke(), cfg, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct %v, %d checks, %d failed", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s: printed %+v (present %v), declared unit %q", w.name, traced, d.Name, v, ok, d.Unit)
				}
			}
		}
	}
}

// With one expected bit flipped every workload must report failures;
// a check that cannot fail checks nothing.
func TestSelftestCatchesFlippedBit(t *testing.T) {
	if err := runSelftest(runConfig{seed: 3}); err != nil {
		t.Fatal(err)
	}
}
