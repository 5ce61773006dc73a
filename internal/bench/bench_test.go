package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/simengine"
)

// fastCfg keeps harness tests quick.
func fastTable1() Table1Config {
	return Table1Config{
		Ls:           []int{3, 5},
		Batch:        64,
		MinMeasure:   20 * time.Millisecond,
		VerifyCycles: 4,
		Seed:         1,
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
		if c.Name == "AES" && testing.Short() {
			continue
		}
		for _, l := range []int{3, 6} {
			res, err := Compile(c, compile.Options{L: l})
			if err != nil {
				t.Fatalf("%s L=%d: %v", c.Name, l, err)
			}
			if _, err := simengine.Verify(res.Model, res.Program, 8, 4, 99); err != nil {
				t.Errorf("%s L=%d: %v", c.Name, l, err)
			}
		}
	}
}

func TestRunTable1Small(t *testing.T) {
	rows, err := RunTable1([]string{"UART"}, fastTable1(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NNGCS <= 0 || r.BaselineGCS <= 0 || r.Layers == 0 {
			t.Errorf("bad row: %+v", r)
		}
		if !r.VerifiedEquiv {
			t.Error("equivalence not verified")
		}
		if r.MeanSparsity < 0.9 {
			t.Errorf("sparsity %f suspiciously low", r.MeanSparsity)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "UART") || !strings.Contains(out, "Speedup") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestRunFig4Small(t *testing.T) {
	rows := RunFig4(Fig4Config{MaxLAlg1: 10, MaxLDNF: 8, Reps: 1, Seed: 2}, nil)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape property: DNF must be slower than Algorithm 1 at the top of
	// the swept range (they may tie at tiny L).
	last := rows[len(rows)-1]
	if last.DNFValid {
		t.Error("DNF should be skipped beyond MaxLDNF")
	}
	var l8 Fig4Row
	for _, r := range rows {
		if r.L == 8 {
			l8 = r
		}
	}
	if !l8.DNFValid {
		t.Error("DNF should be measured at L=8")
	} else if raceEnabled {
		t.Log("race detector active: skipping Alg1-vs-DNF timing comparison")
	} else if l8.DNFTime < l8.Alg1Time {
		t.Errorf("at L=8 DNF (%v) should exceed Alg1 (%v)", l8.DNFTime, l8.Alg1Time)
	}
	if out := FormatFig4(rows); !strings.Contains(out, "Alg1") {
		t.Error("bad format")
	}
}

func TestRunFig6Small(t *testing.T) {
	rows, err := RunFig6(Fig6Config{Circuit: "UART", MinL: 3, MaxL: 6, Reps: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape properties from the paper: layers decrease with L,
	// connections increase with L.
	first, last := rows[0], rows[len(rows)-1]
	if last.Layers > first.Layers {
		t.Errorf("layers grew with L: %d -> %d", first.Layers, last.Layers)
	}
	if last.Connections < first.Connections {
		t.Errorf("connections shrank with L: %d -> %d", first.Connections, last.Connections)
	}
	if out := FormatFig6(rows); !strings.Contains(out, "parallel") {
		t.Error("bad format")
	}
}

func TestStimulusSetShape(t *testing.T) {
	c, _ := circuits.ByName("SPI")
	nl, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStimulusSet(nl, 8, 16, 5)
	if s.Cycles != 8 || s.Lanes != 16 || len(s.Ports) != len(nl.Inputs) {
		t.Fatalf("bad stimulus shape: %+v", s)
	}
	for p, w := range s.Widths {
		if w >= 64 {
			continue
		}
		limit := uint64(1)<<uint(w) - 1
		for c := range s.Values {
			for _, v := range s.Values[c][p] {
				if v > limit {
					t.Fatalf("stimulus exceeds port width")
				}
			}
		}
	}
}

func TestAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run")
	}
	cfg := DefaultAblationConfig()
	cfg.L = 4
	cfg.Batch = 64
	cfg.MinMeasure = 20 * time.Millisecond
	rows, err := RunAblations(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("only %d ablation rows", len(rows))
	}
	if out := FormatAblations(rows); !strings.Contains(out, "merged") {
		t.Error("bad format")
	}
}

func TestRunInfluence(t *testing.T) {
	rows, err := RunInfluence([]string{"UART", "SPI"}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanInfluence <= 0 || r.MeanInfluence > 1 {
			t.Errorf("%s: sensitivity %f out of range", r.Circuit, r.MeanInfluence)
		}
		if r.MeanDensity <= 0 || r.MeanDensity > 1 {
			t.Errorf("%s: density %f out of range", r.Circuit, r.MeanDensity)
		}
		// §II-B: sensitivity and polynomial density move together.
		if r.Correlation <= 0 {
			t.Errorf("%s: correlation %f not positive", r.Circuit, r.Correlation)
		}
		if r.MaxDegree > 5 {
			t.Errorf("%s: degree %d exceeds L", r.Circuit, r.MaxDegree)
		}
	}
	if out := FormatInfluence(rows); !strings.Contains(out, "sensitivity") {
		t.Error("bad format")
	}
}
