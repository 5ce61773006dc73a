package c2nn

// Differential backend-equivalence tests: the float32, int32 and
// bit-packed execution substrates must produce bit-identical outputs on
// every benchmark circuit and on randomly generated netlists. This is
// the dynamic counterpart of the plan-stage lint rules — the packed
// backend's bit-sliced arithmetic is only trusted because these tests
// pin it to the scalar substrates cycle by cycle.

import (
	"fmt"
	"math/rand"
	"testing"

	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/raceflag"
	"c2nn/internal/simengine"
)

// backendPrecisions are the substrates under comparison; index 0 is the
// reference.
var backendPrecisions = []simengine.Precision{
	simengine.Float32, simengine.Int32, simengine.BitPacked,
}

// diffBackends drives identical random stimuli through one engine per
// substrate for the given number of cycles and fails on the first
// output bit or flip-flop state bit where any backend disagrees with
// the float32 reference. Stimuli come from the one generator
// (simengine.Stimulus) and wide ports are read with GetOutputBits, so
// the AES/SHA buses are covered at full width. Every model in forms — other networks of the same
// circuit, such as its nn.Merge — gets its own three engines, held to
// the same reference. Engine i of form f runs with k = i + f + rot: on
// a pool of 1 + k%3 workers (each row group cut one, two or three
// ways) and with activity skipping when k is odd, so six consecutive
// rot values give every substrate and form every width with skipping
// on and off.
func diffBackends(t *testing.T, model *Model, cycles, batch int, seed int64, rot int, forms ...*Model) {
	t.Helper()
	var engines []*Engine
	for f, m := range append([]*Model{model}, forms...) {
		for i, prec := range backendPrecisions {
			k := i + f + rot
			eng, err := NewEngine(m, EngineOptions{Batch: batch, Workers: 1 + k%3, Precision: prec, Activity: k%2 == 1})
			if err != nil {
				t.Fatalf("%v engine (merged=%v): %v", prec, m.Merged, err)
			}
			defer eng.Close()
			engines = append(engines, eng)
		}
	}
	name := func(i int) string {
		return fmt.Sprintf("%v (merged=%v)", engines[i].Precision(), engines[i].Model().Merged)
	}
	stim := simengine.NewStimulus(model, batch, seed)
	var c simengine.Cycle
	for cyc := 0; cyc < cycles; cyc++ {
		c = stim.Next(c)
		for _, eng := range engines {
			if err := stim.Load(eng, c); err != nil {
				t.Fatal(err)
			}
		}
		for _, eng := range engines {
			eng.Forward()
		}
		for _, out := range model.Outputs {
			if len(out.Units) > 64 {
				for lane := 0; lane < batch; lane++ {
					ref, err := engines[0].GetOutputBits(out.Name, lane)
					if err != nil {
						t.Fatal(err)
					}
					for i, eng := range engines[1:] {
						got, err := eng.GetOutputBits(out.Name, lane)
						if err != nil {
							t.Fatal(err)
						}
						for bit := range ref {
							if got[bit] != ref[bit] {
								t.Fatalf("cycle %d port %s lane %d bit %d: %s disagrees with float32",
									cyc, out.Name, lane, bit, name(i+1))
							}
						}
					}
				}
				continue
			}
			ref, err := engines[0].GetOutput(out.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, eng := range engines[1:] {
				got, err := eng.GetOutput(out.Name)
				if err != nil {
					t.Fatal(err)
				}
				for lane := range ref {
					if got[lane] != ref[lane] {
						t.Fatalf("cycle %d port %s lane %d: %s=%#x float32=%#x",
							cyc, out.Name, lane, name(i+1), got[lane], ref[lane])
					}
				}
			}
		}
		for _, eng := range engines {
			eng.LatchFeedback()
		}
		for fi, fb := range model.Feedback {
			for lane := 0; lane < batch; lane++ {
				ref := engines[0].PeekUnit(fb.ToPI, lane)
				for i, eng := range engines[1:] {
					if eng.PeekUnit(eng.Model().Feedback[fi].ToPI, lane) != ref {
						t.Fatalf("cycle %d flip-flop %d lane %d: %s disagrees with float32", cyc, fi, lane, name(i+1))
					}
				}
			}
		}
	}
}

// TestBackendsBitIdenticalOnBenchmarks runs the differential check on
// every Table I circuit at two LUT sizes, on the compiled network and
// its Fig. 5 merge together. Batch 67 exercises partial packed words
// (one full uint64 plus a 3-lane tail). The six circuits step
// diffBackends' rotation through every pool width and skip setting.
func TestBackendsBitIdenticalOnBenchmarks(t *testing.T) {
	ls := []int{4, 7}
	if testing.Short() {
		ls = []int{4}
	}
	for ci, c := range Benchmarks() {
		for _, l := range ls {
			t.Run(fmt.Sprintf("%s/L%d", c.Name, l), func(t *testing.T) {
				model, err := CompileBenchmark(c.Name, Options{L: l, NoMerge: true})
				if err != nil {
					t.Fatal(err)
				}
				var forms []*Model
				if l <= 4 || !raceflag.Enabled { // merged L=7 float32/int32 passes are minutes under -race
					merged, err := nn.Merge(model)
					if err != nil {
						t.Fatal(err)
					}
					forms = append(forms, merged)
				}
				diffBackends(t, model, 16, 67, int64(l)*1000+7, ci, forms...)
			})
		}
	}
}

// TestSequentialTrajectoriesAcrossSimulators is the sequential fuzz:
// random flip-flop-bearing circuits are driven for many cycles with
// per-lane random stimuli through FIVE simulators in lock-step — the
// event-driven gate simulator (one instance per lane), the bit-parallel
// gate simulator, and all three NN engine backends — and every output
// bit of every lane must agree on every cycle. This pins not just the
// combinational forward pass but whole state trajectories: a mismatch
// in any latch, init value or feedback path compounds over cycles and
// surfaces here.
func TestSequentialTrajectoriesAcrossSimulators(t *testing.T) {
	trials := 10
	cycles := 24
	if testing.Short() {
		trials, cycles = 3, 12
	}
	const batch = 8 // BatchSim carries 64 fixed lanes; we drive the first 8

	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < trials; trial++ {
		nIn := 2 + rng.Intn(8)
		nGates := 10 + rng.Intn(100)
		nFFs := 1 + rng.Intn(8) // always sequential
		k := 2 + rng.Intn(6)
		merge := rng.Intn(2) == 0

		nl := randomCircuit(rng, nIn, nGates, nFFs)
		if _, err := nl.Optimize(); err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		prog, err := gatesim.Compile(nl)
		if err != nil {
			t.Fatalf("trial %d: gatesim compile: %v", trial, err)
		}
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
		if err != nil {
			t.Fatalf("trial %d: map: %v", trial, err)
		}
		model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		if merge {
			if model, err = nn.Merge(model); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}

		t.Run(fmt.Sprintf("trial%d_K%d_merge%v_ffs%d", trial, k, merge, nFFs), func(t *testing.T) {
			events := make([]*gatesim.EventSim, batch)
			for lane := range events {
				events[lane] = gatesim.NewEventSim(prog)
			}
			bs := gatesim.NewBatchSim(prog)
			engines := make([]*Engine, len(backendPrecisions))
			for i, prec := range backendPrecisions {
				eng, err := NewEngine(model, EngineOptions{Batch: batch, Precision: prec})
				if err != nil {
					t.Fatalf("%v engine: %v", prec, err)
				}
				defer eng.Close()
				engines[i] = eng
			}

			stim := simengine.NewStimulus(model, batch, int64(trial)*97+13)
			var c simengine.Cycle
			for cyc := 0; cyc < cycles; cyc++ {
				c = stim.Next(c)
				for lane := range events {
					if err := stim.Poke(events[lane], c, lane); err != nil {
						t.Fatal(err)
					}
					for p, in := range model.Inputs { // randomCircuit ports fit one word
						if err := bs.PokeLane(in.Name, lane, c[p][lane]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, eng := range engines {
					if err := stim.Load(eng, c); err != nil {
						t.Fatal(err)
					}
				}
				for lane := range events {
					events[lane].Eval()
				}
				bs.Eval()
				for _, eng := range engines {
					eng.Forward()
				}
				for _, out := range model.Outputs {
					mask := uint64(1)<<uint(len(out.Units)) - 1
					engVals := make([][]uint64, len(engines))
					for i, eng := range engines {
						v, err := eng.GetOutput(out.Name)
						if err != nil {
							t.Fatal(err)
						}
						engVals[i] = v
					}
					for lane := 0; lane < batch; lane++ {
						ref, err := events[lane].Peek(out.Name)
						if err != nil {
							t.Fatal(err)
						}
						bv, err := bs.PeekLane(out.Name, lane)
						if err != nil {
							t.Fatal(err)
						}
						if bv&mask != ref {
							t.Fatalf("cycle %d port %s lane %d: BatchSim=%#x EventSim=%#x",
								cyc, out.Name, lane, bv&mask, ref)
						}
						for i := range engines {
							if engVals[i][lane] != ref {
								t.Fatalf("cycle %d port %s lane %d: %v=%#x EventSim=%#x",
									cyc, out.Name, lane, backendPrecisions[i], engVals[i][lane], ref)
							}
						}
					}
				}
				for lane := range events {
					events[lane].Step()
				}
				bs.Step()
				for _, eng := range engines {
					eng.LatchFeedback()
				}
			}
		})
	}
}

// TestBackendsBitIdenticalOnRandomCircuits is the fuzz variant: random
// netlists (reusing the pipeline property-test generator), random LUT
// size, merge setting and batch, all substrates in lock-step.
func TestBackendsBitIdenticalOnRandomCircuits(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < trials; trial++ {
		nIn := 2 + rng.Intn(10)
		nGates := 10 + rng.Intn(120)
		nFFs := rng.Intn(10)
		k := 2 + rng.Intn(9)
		merge := rng.Intn(2) == 0
		batch := []int{1, 5, 64, 67}[rng.Intn(4)]

		nl := randomCircuit(rng, nIn, nGates, nFFs)
		if _, err := nl.Optimize(); err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
		if err != nil {
			t.Fatalf("trial %d (K=%d): map: %v", trial, k, err)
		}
		model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		if merge {
			if model, err = nn.Merge(model); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}
		t.Run(fmt.Sprintf("trial%d_K%d_merge%v_batch%d", trial, k, merge, batch), func(t *testing.T) {
			diffBackends(t, model, 16, batch, int64(trial)*31+5, trial)
		})
	}
}
