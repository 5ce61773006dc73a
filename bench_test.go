package c2nn

// One testing.B benchmark per table/figure of the paper's evaluation,
// plus the ablation benches DESIGN.md calls out. Run everything with
//
//	go test -bench=. -benchmem
//
// The full Table I / Fig. 4 / Fig. 6 sweeps with formatted output live
// in cmd/bench (`bench table1 fig4 fig6 ablations`); these benches
// expose the same measurements through the standard Go benchmark
// harness so `benchstat` comparisons work.

import (
	"fmt"
	"math/rand"
	"testing"

	"c2nn/internal/bench"
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/poly"
	"c2nn/internal/simengine"
	"c2nn/internal/truthtab"
)

// compiled caches pipeline results across benchmarks.
var compiled = map[string]*bench.CompileResult{}

func getCompiled(b *testing.B, name string, l int) *bench.CompileResult {
	b.Helper()
	key := fmt.Sprintf("%s@%d", name, l)
	if r, ok := compiled[key]; ok {
		return r
	}
	c, err := circuits.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	r, err := bench.Compile(c, compile.Options{L: l})
	if err != nil {
		b.Fatal(err)
	}
	compiled[key] = r
	return r
}

// --- Table I: baseline throughput (the Verilator stand-in) -------------

// BenchmarkTable1Baseline measures scalar levelized simulation of each
// circuit; gates*cycles/s is reported as a custom metric.
func BenchmarkTable1Baseline(b *testing.B) {
	for _, name := range []string{"AES", "SHA", "SPI", "UART", "DMA", "RISC-V interface"} {
		b.Run(name, func(b *testing.B) {
			res := getCompiled(b, name, 3)
			stim := bench.NewStimulusSet(res.Model, 32, 1, 1)
			sim := gatesim.NewSim(res.Program)
			gates := float64(res.Netlist.GateCount())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stim.Poke(sim, stim.Values[i%stim.Cycles], 0)
				sim.Step()
			}
			b.ReportMetric(gates*float64(b.N)/b.Elapsed().Seconds(), "gates*cycles/s")
		})
	}
}

// BenchmarkTable1NN measures the NN engine per circuit and L (Table I's
// last columns); one iteration = one batched cycle.
func BenchmarkTable1NN(b *testing.B) {
	const batch = 256 // fits the 1-core CI container even at L=11 on AES
	for _, name := range []string{"AES", "SHA", "SPI", "UART", "DMA", "RISC-V interface"} {
		for _, l := range []int{3, 7, 11} {
			b.Run(fmt.Sprintf("%s/L=%d", name, l), func(b *testing.B) {
				res := getCompiled(b, name, l)
				stim := bench.NewStimulusSet(res.Model, 16, batch, 1)
				eng, err := simengine.New(res.Model, simengine.Options{Batch: batch})
				if err != nil {
					b.Fatal(err)
				}
				gates := float64(res.Model.GateCount)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					stim.Load(eng, stim.Values[i%stim.Cycles])
					eng.Step()
				}
				b.ReportMetric(gates*float64(b.N)*batch/b.Elapsed().Seconds(), "gates*cycles/s")
			})
		}
	}
}

// BenchmarkTable1Generation measures compilation (generation) time, the
// Table I "Generation Time" column. One iteration = one full pipeline
// run on the UART circuit (the smaller circuits keep b.N sane; cmd/bench
// reports generation time for all circuits).
func BenchmarkTable1Generation(b *testing.B) {
	for _, l := range []int{3, 7, 11} {
		b.Run(fmt.Sprintf("UART/L=%d", l), func(b *testing.B) {
			c, err := circuits.ByName("UART")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := bench.Compile(c, compile.Options{L: l}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 4: polynomial generation, Algorithm 1 vs DNF -----------------

func randomTable(l int, seed int64) truthtab.Table {
	rng := rand.New(rand.NewSource(seed))
	t := truthtab.New(l)
	for i := range t.Words {
		t.Words[i] = rng.Uint64()
	}
	return t.Not().Not()
}

// BenchmarkFig4Alg1 times the divide-and-conquer converter across L.
func BenchmarkFig4Alg1(b *testing.B) {
	for _, l := range []int{4, 8, 12, 16, 20} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			tab := randomTable(l, int64(l))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = poly.FromTable(tab)
			}
		})
	}
}

// BenchmarkFig4DNF times the naive DNF-expansion converter (the O(4^L)
// baseline; swept to smaller L than Algorithm 1 for obvious reasons).
func BenchmarkFig4DNF(b *testing.B) {
	for _, l := range []int{4, 8, 10, 12} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			tab := randomTable(l, int64(l))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = poly.FromTableDNF(tab)
			}
		})
	}
}

// --- Fig. 6: UART single-stimulus latency across L ----------------------

// BenchmarkFig6Parallel is the "GPU" curve: one stimulus, row-parallel
// layers; latency tracks layer count (~1/log2 L).
func BenchmarkFig6Parallel(b *testing.B) {
	for _, l := range []int{2, 3, 5, 7, 9, 11} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			res := getCompiled(b, "UART", l)
			eng, err := simengine.New(res.Model, simengine.Options{Batch: 1})
			if err != nil {
				b.Fatal(err)
			}
			stats := res.Model.Net.ComputeStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(stats.Layers), "layers")
			b.ReportMetric(float64(stats.Connections), "connections")
		})
	}
}

// BenchmarkFig6Sequential is the "CPU" curve: one stimulus, one worker;
// latency tracks connection count (~2^L).
func BenchmarkFig6Sequential(b *testing.B) {
	for _, l := range []int{2, 3, 5, 7, 9, 11} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			res := getCompiled(b, "UART", l)
			eng, err := simengine.New(res.Model, simengine.Options{Batch: 1, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblationMerge compares merged vs unmerged networks (Fig. 5).
func BenchmarkAblationMerge(b *testing.B) {
	for _, merged := range []bool{true, false} {
		name := "merged"
		if !merged {
			name = "unmerged"
		}
		b.Run(name, func(b *testing.B) {
			c, err := circuits.ByName("UART")
			if err != nil {
				b.Fatal(err)
			}
			nl, err := c.Elaborate()
			if err != nil {
				b.Fatal(err)
			}
			m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 7})
			if err != nil {
				b.Fatal(err)
			}
			model, err := nn.Build(nl, m, nn.BuildOptions{L: 7})
			if err != nil {
				b.Fatal(err)
			}
			if merged {
				if model, err = nn.Merge(model); err != nil {
					b.Fatal(err)
				}
			}
			eng, err := simengine.New(model, simengine.Options{Batch: 256})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(len(model.Net.Layers)), "layers")
		})
	}
}

// BenchmarkAblationPrecision compares the float32, int32 and
// bit-packed execution substrates (§V).
func BenchmarkAblationPrecision(b *testing.B) {
	for _, prec := range []simengine.Precision{simengine.Float32, simengine.Int32, simengine.BitPacked} {
		b.Run(prec.String(), func(b *testing.B) {
			res := getCompiled(b, "UART", 7)
			eng, err := simengine.New(res.Model, simengine.Options{Batch: 256, Precision: prec})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// BenchmarkAblationSparseDense compares SpMM against the dense kernel on
// the largest layer of the UART network (§III-F).
func BenchmarkAblationSparseDense(b *testing.B) {
	res := getCompiled(b, "UART", 7)
	var biggest int
	for i := range res.Model.Net.Layers {
		if res.Model.Net.Layers[i].W.NNZ() > res.Model.Net.Layers[biggest].W.NNZ() {
			biggest = i
		}
	}
	w := res.Model.Net.Layers[biggest].W
	const batch = 128
	x := make([]float32, w.Cols*batch)
	for i := range x {
		if i%2 == 0 {
			x[i] = 1
		}
	}
	y := make([]float32, w.Rows*batch)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.MulBatch(x, batch, y)
		}
		b.ReportMetric(w.Sparsity(), "sparsity")
	})
	d := w.ToDense()
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.MulBatchNoSkip(x, batch, y)
		}
	})
}

// BenchmarkAblationMappers compares priority-cut and FlowMap mapping
// runtime (and reports resulting depth).
func BenchmarkAblationMappers(b *testing.B) {
	c, err := circuits.ByName("UART")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := c.Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []lutmap.Algorithm{lutmap.PriorityCuts, lutmap.FlowMap} {
		name := "priority-cuts"
		if alg == lutmap.FlowMap {
			name = "flowmap"
		}
		b.Run(name, func(b *testing.B) {
			var depth int32
			for i := 0; i < b.N; i++ {
				m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 5, Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
				depth = m.Graph.Depth()
			}
			b.ReportMetric(float64(depth), "depth")
		})
	}
}

// BenchmarkAblationBaselines compares the baseline simulator family:
// scalar, event-driven and 64-lane bit-parallel.
func BenchmarkAblationBaselines(b *testing.B) {
	res := getCompiled(b, "SPI", 3)
	stim := bench.NewStimulusSet(res.Model, 16, 64, 9)
	gates := float64(res.Netlist.GateCount())

	b.Run("scalar", func(b *testing.B) {
		sim := gatesim.NewSim(res.Program)
		for i := 0; i < b.N; i++ {
			stim.Poke(sim, stim.Values[i%stim.Cycles], 0)
			sim.Step()
		}
		b.ReportMetric(gates*float64(b.N)/b.Elapsed().Seconds(), "gates*cycles/s")
	})
	b.Run("event-driven", func(b *testing.B) {
		sim := gatesim.NewEventSim(res.Program)
		for i := 0; i < b.N; i++ {
			stim.Poke(sim, stim.Values[i%stim.Cycles], 0)
			sim.Step()
		}
		b.ReportMetric(gates*float64(b.N)/b.Elapsed().Seconds(), "gates*cycles/s")
	})
	b.Run("bit-parallel-64", func(b *testing.B) {
		sim := gatesim.NewBatchSim(res.Program)
		words := stim.BitMajor() // transposed outside the timed loop (§IV)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wc := words[i%stim.Cycles]
			for p, port := range stim.Ports {
				sim.Poke(port.Name, wc[p])
			}
			sim.Step()
		}
		b.ReportMetric(gates*float64(b.N)*64/b.Elapsed().Seconds(), "gates*cycles/s")
	})
}

// BenchmarkStimulusParallelism sweeps batch size on UART, showing the
// stimulus-parallelism payoff that motivates the paper's GPU batching.
func BenchmarkStimulusParallelism(b *testing.B) {
	res := getCompiled(b, "UART", 7)
	gates := float64(res.Model.GateCount)
	for _, batch := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			eng, err := simengine.New(res.Model, simengine.Options{Batch: batch})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(gates*float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "gates*cycles/s")
		})
	}
}

// TestPublicAPI exercises the facade end to end.
func TestPublicAPI(t *testing.T) {
	model, err := CompileBenchmark("UART", Options{L: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(model, EngineOptions{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetInputUniform("rst", 1)
	eng.Step()
	eng.SetInputUniform("rst", 0)
	eng.Step()
	eng.Forward()
	if v, err := eng.GetOutput("txd"); err != nil || v[0] != 1 {
		t.Fatalf("txd = %v (err %v), want idle high", v, err)
	}

	n, err := Verify("SPI", 4, 8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no comparisons")
	}
	if len(Benchmarks()) != 6 {
		t.Fatalf("benchmarks = %d", len(Benchmarks()))
	}

	src := map[string]string{"inv.v": "module inv(input a, output y); assign y = ~a; endmodule"}
	m2, err := CompileVerilog(src, Options{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEngine(m2, EngineOptions{Batch: 1})
	e2.SetInputUniform("a", 0)
	e2.Forward()
	if v, _ := e2.GetOutput("y"); v[0] != 1 {
		t.Fatal("inverter broken")
	}
}
