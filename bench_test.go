package c2nn

// The paper's Table I / Fig. 4 / Fig. 6 sweeps and the ablations live in
// cmd/bench (`bench table1 fig4 fig6 ablations`, docs/BENCH.md) and land
// in the one ledger. What stays here is the one sweep no suite has —
// batch size — and the facade smoke test.

import (
	"fmt"
	"testing"

	"c2nn/internal/compile"
	"c2nn/internal/simengine"
)

// BenchmarkStimulusParallelism sweeps batch size on UART, showing the
// stimulus-parallelism payoff that motivates the paper's GPU batching.
func BenchmarkStimulusParallelism(b *testing.B) {
	src, err := compile.Builtin("UART")
	if err != nil {
		b.Fatal(err)
	}
	res, err := compile.Run(src, compile.Options{L: 7}, nil)
	if err != nil {
		b.Fatal(err)
	}
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
