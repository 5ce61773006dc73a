package bench

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/obs"
	"c2nn/internal/raceflag"
	"c2nn/internal/simengine"
)

// tinyEnv is the suite's default configuration shrunk to harness-test
// size: the given circuits and Ls, a small batch, a 20 ms floor.
func tinyEnv(t *testing.T, name string, circuitNames []string, ls ...int) (*Suite, *Env) {
	t.Helper()
	s, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Env(false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Circuits, err = Circuits(circuitNames); err != nil {
		t.Fatal(err)
	}
	e.Ls, e.Batch, e.MinMeasure, e.VerifyCycles = ls, 64, 20*time.Millisecond, 4
	return s, e
}

// pick returns the value of the one row matching every non-zero field
// of want.
func pick(t *testing.T, rows []Row, want Row) float64 {
	t.Helper()
	var found []Row
	for _, r := range rows {
		if (want.Circuit == "" || r.Circuit == want.Circuit) && (want.L == 0 || r.L == want.L) &&
			(want.Backend == "" || r.Backend == want.Backend) && (want.Variant == "" || r.Variant == want.Variant) &&
			r.Workers == want.Workers && r.Metric == want.Metric {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d rows match %+v, want 1", len(found), want)
	}
	return found[0].Value
}

func TestMeasure(t *testing.T) {
	calls := 0
	tm, err := measure(0, func() error { calls++; return nil })
	if err != nil || calls != 1 || tm.n != 1 {
		t.Fatalf("measure(0): %d calls, timing %+v, err %v; want exactly one call", calls, tm, err)
	}
	tm, _ = measure(5*time.Millisecond, func() error { time.Sleep(time.Millisecond); return nil })
	if tm.n < 2 || tm.total < 5*time.Millisecond || tm.best > tm.per() || tm.best <= 0 {
		t.Errorf("measure(5ms) = %+v: want ≥2 calls, total ≥ floor, 0 < best ≤ mean", tm)
	}
}

func TestCompilePipeline(t *testing.T) {
	c, err := circuits.ByName("UART")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(c, compile.Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.GenTime <= 0 || res.Model == nil || res.Program == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.Model.GateCount != int64(res.Netlist.GateCount()) {
		t.Error("gate count mismatch")
	}
}

// The §IV-A check at harness level: every benchmark circuit must be
// NN-equivalent to its gate-level model at a couple of L values.
func TestAllCircuitsEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence sweep")
	}
	for _, c := range circuits.All() {
		for _, l := range []int{3, 6} {
			res, err := Compile(c, compile.Options{L: l})
			if err != nil {
				t.Fatalf("%s L=%d: %v", c.Name, l, err)
			}
			if _, err := simengine.Verify(res.Model, res.Program, 8, simengine.Options{Batch: 4}, 99); err != nil {
				t.Errorf("%s L=%d: %v", c.Name, l, err)
			}
		}
	}
}

// TestStimulusSetShape: the pre-generated set has the requested shape,
// no value exceeds its port's width, and BitMajor is the exact
// transpose of the first 64 lanes at full port width (AES has 128-bit
// ports).
func TestStimulusSetShape(t *testing.T) {
	for _, name := range []string{"SPI", "AES"} {
		c, _ := circuits.ByName(name)
		res, err := Compile(c, compile.Options{L: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := NewStimulusSet(res.Model, 8, 80, 5)
		if s.Cycles != 8 || s.Lanes != 80 || len(s.Values) != 8 || len(s.Ports) != len(res.Netlist.Inputs) {
			t.Fatalf("%s: bad stimulus shape: %d cycles, %d lanes, %d ports", name, len(s.Values), s.Lanes, len(s.Ports))
		}
		if first := simengine.NewStimulus(res.Model, 80, 5).Next(nil); !reflect.DeepEqual(s.Values[0], first) {
			t.Fatalf("%s: seed 5 gives the set a different stream than the generator itself", name)
		}
		words := s.BitMajor()
		for p, port := range s.Ports {
			w := len(port.Units)
			perLane := (w + 63) / 64
			for c, cyc := range s.Values {
				if len(cyc[p]) != 80*perLane {
					t.Fatalf("%s port %s: %d words for 80 lanes of %d bits", name, port.Name, len(cyc[p]), w)
				}
				for lane := 0; lane < 80; lane++ {
					if top := cyc[p][lane*perLane+perLane-1]; w%64 != 0 && top>>uint(w%64) != 0 {
						t.Fatalf("%s port %s lane %d: stimulus exceeds port width", name, port.Name, lane)
					}
					// BitMajor holds the first 64 lanes, one lane per word bit.
					for bit := 0; bit < w && lane < 64; bit++ {
						if words[c][p][bit]>>uint(lane)&1 != cyc[p][lane*perLane+bit/64]>>uint(bit%64)&1 {
							t.Fatalf("%s cycle %d port %s lane %d bit %d transposed wrongly", name, c, port.Name, lane, bit)
						}
					}
				}
			}
		}
	}
}

// Every suite, at a tiny configuration whose L and batch differ from
// every suite's defaults, must emit well-formed rows that honour the
// shared Env: the L and batch it was given on every row, at least its
// own span on the trace, and every text-table column filled by a row.
func TestSuitesEmitTheRowSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all eleven suites")
	}
	t.Chdir("../..") // the smoke testbenches are found relative to the repository root
	for i := range Suites {
		name := Suites[i].Name
		t.Run(name, func(t *testing.T) {
			s, e := tinyEnv(t, name, []string{"UART"}, 3)
			e.Trace = obs.New()
			rows, err := s.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatal("no rows")
			}
			seen := map[Row]bool{}
			for _, r := range rows {
				if r.Suite != name || r.Metric == "" || r.Unit == "" {
					t.Errorf("row lacks suite/metric/unit: %+v", r)
				}
				if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
					t.Errorf("non-finite value: %+v", r)
				}
				if r.L != 3 || r.Batch != 64 {
					t.Errorf("row ignores Env.Ls / Env.Batch: %+v", r)
				}
				if name != "fig4" && r.Circuit != "UART" {
					t.Errorf("row ignores Env.Circuits: %+v", r)
				}
				if seen[r.key()] {
					t.Errorf("duplicate key: %+v", r)
				}
				seen[r.key()] = true
			}
			for _, spec := range s.Columns {
				col, filled := parseColumn(spec), false
				for _, r := range rows {
					filled = filled || col.matches(r)
				}
				if !filled {
					t.Errorf("column %q matches no row", spec)
				}
			}
			traced := false
			for _, sp := range e.Trace.Spans() {
				traced = traced || sp.Name == "suite "+name
			}
			if !traced {
				t.Errorf("no %q span on Env.Trace", "suite "+name)
			}

			// The ledger round-trips through its JSON form.
			in := &Ledger{Meta: CollectMeta()}
			in.Add(name, rows)
			data, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			out := new(Ledger)
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Error("ledger changed across a JSON round trip")
			}
			if text := Render(s, rows); !strings.Contains(text, s.Columns[0]) {
				t.Errorf("rendered table lacks its first column:\n%s", text)
			}
		})
	}
}

// Suite defaults are the documented ones and reach the Env untouched:
// the drift the per-suite flag plumbing hid (equiv never saw {4,7,11},
// table1 documented a batch it never ran) cannot come back unnoticed.
func TestSuiteDefaults(t *testing.T) {
	want := map[string]struct {
		ls    []int
		batch int
		all   int // circuits under `bench all`
	}{
		"table1": {[]int{3, 7, 11}, 256, 6}, "fig4": {seq(2, 20), 0, 0}, "fig6": {seq(2, 11), 1, 1},
		"ablations": {[]int{7}, 512, 1}, "backends": {[]int{4, 7}, 256, 6}, "faults": {[]int{4}, 64, 2},
		"equiv": {[]int{4, 7, 11}, 0, 2}, "analyze": {[]int{4, 7}, 256, 6}, "activity": {[]int{4}, 256, 3},
		"telemetry": {[]int{7}, 256, 6}, "influence": {[]int{7}, 0, 6},
	}
	if len(Suites) != len(want) {
		t.Fatalf("%d suites, want %d", len(Suites), len(want))
	}
	for i := range Suites {
		s := &Suites[i]
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected suite %q", s.Name)
			continue
		}
		e, err := s.Env(true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.Ls, w.ls) || e.Batch != w.batch || len(e.Circuits) != w.all {
			t.Errorf("%s: Env(all) = Ls %v batch %d circuits %d, want %v %d %d",
				s.Name, e.Ls, e.Batch, len(e.Circuits), w.ls, w.batch, w.all)
		}
		if one, _ := s.Env(false); s.InAll == nil && len(one.Circuits) != w.all {
			t.Errorf("%s: circuit default differs under `all` without an InAll entry", s.Name)
		}
	}
	faults, err := Lookup("faults")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := faults.Env(false); len(e.Circuits) != 6 {
		t.Errorf("faults outside `all` should default to every circuit, got %d", len(e.Circuits))
	}
	if _, err := Lookup("exec"); err == nil {
		t.Error("Lookup accepts an unknown suite")
	}
}

func TestTable1Small(t *testing.T) {
	s, e := tinyEnv(t, "table1", []string{"UART"}, 3, 5)
	rows, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{3, 5} {
		for _, want := range []Row{
			{Metric: "gcs", Backend: "float32"}, {Metric: "gcs", Backend: "bitpacked"},
			{Metric: "gcs", Backend: gateSim}, {Metric: "layers"}, {Metric: "speedup"},
		} {
			want.L = l
			if v := pick(t, rows, want); v <= 0 {
				t.Errorf("L=%d %s@%s = %v, want positive", l, want.Metric, want.Backend, v)
			}
		}
		if pick(t, rows, Row{L: l, Metric: "verified"}) != 1 {
			t.Error("equivalence not verified")
		}
		if sp := pick(t, rows, Row{L: l, Metric: "sparsity"}); sp < 0.9 {
			t.Errorf("sparsity %f suspiciously low", sp)
		}
	}
	if out := Render(s, rows); !strings.Contains(out, "UART") || !strings.Contains(out, "speedup") {
		t.Errorf("rendered table:\n%s", out)
	}
}

func TestFig4Small(t *testing.T) {
	s, e := tinyEnv(t, "fig4", nil, 4, fig4MaxDNF, fig4MaxDNF+1)
	rows, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Metric == "dnf_ns" && r.L > fig4MaxDNF {
			t.Error("DNF should be skipped beyond fig4MaxDNF")
		}
	}
	// Shape property: at the top of its range the O(4^L) DNF expansion
	// is several times slower than Algorithm 1 (they may tie at tiny L).
	// Both numbers are the fastest of every conversion that fit in the
	// floor, dozens at this L, so scheduling noise cannot invert them.
	alg1 := pick(t, rows, Row{L: fig4MaxDNF, Metric: "alg1_ns"})
	dnf := pick(t, rows, Row{L: fig4MaxDNF, Metric: "dnf_ns"})
	if raceflag.Enabled {
		t.Log("race detector active: skipping Alg1-vs-DNF timing comparison")
	} else if dnf < alg1 {
		t.Errorf("at L=%d DNF (%v ns) should exceed Alg1 (%v ns)", fig4MaxDNF, dnf, alg1)
	}
}

func TestFig6Small(t *testing.T) {
	s, e := tinyEnv(t, "fig6", []string{"UART"}, 3, 4, 5, 6)
	e.Batch = 1
	rows, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	// Shape properties from the paper: layers decrease with L,
	// connections increase with L.
	if first, last := pick(t, rows, Row{L: 3, Metric: "layers"}), pick(t, rows, Row{L: 6, Metric: "layers"}); last > first {
		t.Errorf("layers grew with L: %v -> %v", first, last)
	}
	if first, last := pick(t, rows, Row{L: 3, Metric: "connections"}), pick(t, rows, Row{L: 6, Metric: "connections"}); last < first {
		t.Errorf("connections shrank with L: %v -> %v", first, last)
	}
	if seq := pick(t, rows, Row{L: 6, Metric: "step_ns", Workers: 1}); seq <= 0 {
		t.Errorf("sequential step time %v", seq)
	}
}

func TestAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run")
	}
	s, e := tinyEnv(t, "ablations", []string{"UART"}, 4)
	rows, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if merged, unmerged := pick(t, rows, Row{Variant: "merged", Metric: "layers"}),
		pick(t, rows, Row{Variant: "unmerged", Metric: "layers"}); merged >= unmerged {
		t.Errorf("merging did not reduce layers: %v vs %v", merged, unmerged)
	}
	for _, v := range []string{"scalar", "event", "batch64"} {
		if g := pick(t, rows, Row{Variant: v, Metric: "gcs"}); g <= 0 {
			t.Errorf("%s baseline throughput %v", v, g)
		}
	}
}

func TestInfluence(t *testing.T) {
	s, e := tinyEnv(t, "influence", []string{"UART", "SPI"}, 5)
	rows, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"UART", "SPI"} {
		for _, m := range []string{"mean_influence", "mean_density"} {
			if v := pick(t, rows, Row{Circuit: c, Metric: m}); v <= 0 || v > 1 {
				t.Errorf("%s: %s %f out of range", c, m, v)
			}
		}
		// §II-B: sensitivity and polynomial density move together.
		if r := pick(t, rows, Row{Circuit: c, Metric: "correlation"}); r <= 0 {
			t.Errorf("%s: correlation %f not positive", c, r)
		}
		if d := pick(t, rows, Row{Circuit: c, Metric: "max_degree"}); d > 5 {
			t.Errorf("%s: degree %v exceeds L", c, d)
		}
	}
}
