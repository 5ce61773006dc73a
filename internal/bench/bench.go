// Package bench is the experiment harness: it compiles the benchmark
// circuits through the full pipeline and regenerates every table and
// figure of the paper's evaluation (Table I, Fig. 4, Fig. 6), plus the
// ablations called out in DESIGN.md. cmd/bench drives it from the
// command line; bench_test.go wraps it in testing.B benchmarks.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// CompileResult carries everything produced by one pipeline run.
type CompileResult struct {
	Circuit circuits.Circuit
	Netlist *netlist.Netlist
	Mapping *lutmap.Mapping
	Model   *nn.Model
	Program *gatesim.Program
	L       int
	GenTime time.Duration // NN generation (compilation) time
}

// Compile runs the full pipeline (Fig. 1) on one circuit through the
// compile driver. The reported generation time covers everything from
// Verilog source to the stored-model-ready network, matching the
// "Generation Time" column of Table I.
func Compile(c circuits.Circuit, opts compile.Options) (*CompileResult, error) {
	start := time.Now()
	res, err := compile.Run(compile.FromCircuit(c), opts, nil)
	if err != nil {
		return nil, fmt.Errorf("compile %s at L=%d: %w", c.Name, opts.L, err)
	}
	genTime := time.Since(start)

	prog, err := gatesim.Compile(res.Netlist)
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Circuit: c,
		Netlist: res.Netlist,
		Mapping: res.Mapping,
		Model:   res.Model,
		Program: prog,
		L:       res.Model.L,
		GenTime: genTime,
	}, nil
}

// StimulusSet is a pre-generated random stimulus stream: one value
// sequence per input port per cycle per lane. Pre-generating keeps data
// creation out of the timed region, as the paper specifies (§IV).
type StimulusSet struct {
	Ports  []string
	Widths []int
	// Values[cycle][port][lane].
	Values [][][]uint64
	Cycles int
	Lanes  int
}

// NewStimulusSet draws random stimuli for every input port of a netlist.
func NewStimulusSet(nl *netlist.Netlist, cycles, lanes int, seed int64) *StimulusSet {
	rng := rand.New(rand.NewSource(seed))
	s := &StimulusSet{Cycles: cycles, Lanes: lanes}
	for i := range nl.Inputs {
		s.Ports = append(s.Ports, nl.Inputs[i].Name)
		s.Widths = append(s.Widths, nl.Inputs[i].Width())
	}
	s.Values = make([][][]uint64, cycles)
	for c := 0; c < cycles; c++ {
		s.Values[c] = make([][]uint64, len(s.Ports))
		for p := range s.Ports {
			vals := make([]uint64, lanes)
			for l := 0; l < lanes; l++ {
				v := rng.Uint64()
				if s.Widths[p] < 64 {
					v &= 1<<uint(s.Widths[p]) - 1
				}
				vals[l] = v
			}
			s.Values[c][p] = vals
		}
	}
	return s
}

// BaselineThroughput measures the scalar levelized simulator (the
// Verilator stand-in): one stimulus per pass, random inputs every
// cycle. It runs for at least minTime and returns gates·cycles/s.
func BaselineThroughput(prog *gatesim.Program, stim *StimulusSet, minTime time.Duration) float64 {
	sim := gatesim.NewSim(prog)
	gates := int64(prog.Netlist().GateCount())
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p, name := range stim.Ports {
			sim.Poke(name, sc[p][0])
		}
		sim.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, 1, time.Since(start))
}

// EventThroughput measures the event-driven baseline variant.
func EventThroughput(prog *gatesim.Program, stim *StimulusSet, minTime time.Duration) float64 {
	sim := gatesim.NewEventSim(prog)
	gates := int64(prog.Netlist().GateCount())
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p, name := range stim.Ports {
			sim.Poke(name, sc[p][0])
		}
		sim.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, 1, time.Since(start))
}

// Batch64Throughput measures the 64-lane bit-parallel baseline.
func Batch64Throughput(prog *gatesim.Program, stim *StimulusSet, minTime time.Duration) float64 {
	sim := gatesim.NewBatchSim(prog)
	gates := int64(prog.Netlist().GateCount())
	nl := prog.Netlist()
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p := range stim.Ports {
			port := nl.Inputs[p]
			lanes := make([]uint64, port.Width())
			for bit := 0; bit < port.Width(); bit++ {
				var w uint64
				for l := 0; l < 64 && l < stim.Lanes; l++ {
					if sc[p][l]>>uint(bit)&1 == 1 {
						w |= 1 << uint(l)
					}
				}
				lanes[bit] = w
			}
			sim.Poke(port.Name, lanes)
		}
		sim.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, 64, time.Since(start))
}

// NNThroughput measures the neural-network engine at the given batch
// size, worker count and precision, including per-cycle input transfer
// (the paper's throughput includes stimulus transfer, §IV). Returns
// gates·cycles/s across all lanes.
func NNThroughput(res *CompileResult, stim *StimulusSet, batch, workers int,
	prec simengine.Precision, minTime time.Duration) (float64, error) {
	return NNThroughputTraced(res, stim, batch, workers, prec, minTime, nil)
}

// NNThroughputTraced is NNThroughput with an observability sink: the
// timed region records a "measure" span and the engine records its
// forward/kernel spans and dispatch counters. A nil trace is
// NNThroughput.
func NNThroughputTraced(res *CompileResult, stim *StimulusSet, batch, workers int,
	prec simengine.Precision, minTime time.Duration, tr *obs.Trace) (float64, error) {
	eng, err := simengine.New(res.Model, simengine.Options{
		Batch: batch, Workers: workers, Precision: prec, Trace: tr,
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	msp := tr.Begin("measure").
		SetStr("circuit", res.Circuit.Name).
		SetStr("backend", prec.String()).
		SetInt("batch", int64(batch))
	defer msp.End()
	gates := res.Model.GateCount
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p, name := range stim.Ports {
			if err := eng.SetInput(name, sc[p]); err != nil {
				return 0, err
			}
		}
		eng.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, batch, time.Since(start)), nil
}

// SingleStimulusLatency measures one forward pass (batch 1) with the
// given worker count — the Fig. 6 measurement.
func SingleStimulusLatency(res *CompileResult, workers int, reps int) (time.Duration, error) {
	eng, err := simengine.New(res.Model, simengine.Options{Batch: 1, Workers: workers})
	if err != nil {
		return 0, err
	}
	// One warm-up pass.
	eng.Step()
	start := time.Now()
	for i := 0; i < reps; i++ {
		eng.Step()
	}
	return time.Since(start) / time.Duration(reps), nil
}
