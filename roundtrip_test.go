package c2nn

// Round-trip tests: a netlist emitted as structural Verilog by
// netlist.WriteVerilog must re-elaborate through the frontend into a
// functionally identical circuit. This exercises writer, lexer, parser
// and synthesis against each other.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"c2nn/internal/gatesim"
	"c2nn/internal/netlist"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
)

func roundTrip(t *testing.T, nl *netlist.Netlist) *netlist.Netlist {
	t.Helper()
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatalf("WriteVerilog: %v", err)
	}
	back, err := synth.ElaborateSource("", map[string]string{"rt.v": sb.String()})
	if err != nil {
		t.Fatalf("re-elaborate: %v\nsource:\n%s", err, sb.String())
	}
	return back
}

func TestWriterRoundTripRandom(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < trials; trial++ {
		nl := randomCircuit(rng, 2+rng.Intn(8), 10+rng.Intn(120), rng.Intn(10))
		// The writer does not carry FF init values; normalise to zero.
		for i := range nl.FFs {
			nl.FFs[i].Init = false
		}
		back := roundTrip(t, nl)
		if back.NumFFs() != nl.NumFFs() {
			t.Fatalf("trial %d: FFs %d -> %d", trial, nl.NumFFs(), back.NumFFs())
		}

		progA, err := gatesim.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		progB, err := gatesim.Compile(back)
		if err != nil {
			t.Fatal(err)
		}
		simA := gatesim.NewSim(progA)
		simB := gatesim.NewSim(progB)

		for cyc := 0; cyc < 16; cyc++ {
			v := rng.Uint64()
			simA.Poke("in", v)
			simB.Poke("in", v)
			simA.Eval()
			simB.Eval()
			a, _ := simA.Peek("out")
			bVal, errB := simB.Peek("out")
			if errB != nil {
				bVal, _ = simB.Peek("out_o")
			}
			if a != bVal {
				t.Fatalf("trial %d cycle %d: out %#x != %#x", trial, cyc, a, bVal)
			}
			simA.Step()
			simB.Step()
		}
	}
}

func TestWriterRoundTripBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark round trips")
	}
	for _, name := range []string{"UART", "SPI", "DMA"} {
		model, err := CompileBenchmark(name, Options{L: 3})
		if err != nil {
			t.Fatal(err)
		}
		c := mustCircuit(t, name)
		nl, err := c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		back := roundTrip(t, nl)
		progA, _ := gatesim.Compile(nl)
		progB, _ := gatesim.Compile(back)
		simA := gatesim.NewSim(progA)
		simB := gatesim.NewSim(progB)
		stim := simengine.NewStimulus(model, 1, 5)
		for cyc := 0; cyc < 24; cyc++ {
			in := stim.Next(nil)
			if err := errors.Join(stim.Poke(simA, in, 0), stim.Poke(simB, in, 0)); err != nil {
				t.Fatal(err)
			}
			simA.Eval()
			simB.Eval()
			for i := range nl.Outputs {
				oname := nl.Outputs[i].Name
				a, _ := simA.Peek(oname)
				b, errB := simB.Peek(oname)
				if errB != nil {
					b, _ = simB.Peek(oname + "_o")
				}
				if a != b {
					t.Fatalf("%s cycle %d: %s = %#x vs %#x", name, cyc, oname, a, b)
				}
			}
			simA.Step()
			simB.Step()
		}
	}
}

func mustCircuit(t *testing.T, name string) Circuit {
	t.Helper()
	for _, c := range Benchmarks() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no circuit %q", name)
	return Circuit{}
}
