package main

import (
	"fmt"

	"c2nn"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop with one client: a single goroutine drives one engine and
// issues the next call only when the previous one has returned. The
// engine's worker count is left at its default (GOMAXPROCS).
type workload struct {
	name string
	// why records the reason the workload was chosen: which layers it
	// stresses and which optimisation it is meant to show or to bypass.
	why string

	circuit   string
	l         int
	precision c2nn.Precision
	batch     int
	activity  bool

	// script drives the engine through testbench.Parse and
	// Script.RunOpts on a generated .tb (protocol replay) instead of
	// calling the engine directly (random stimulus).
	script bool
	// episode is the number of cycles of generated stimulus. The timed
	// loop replays the episode from reset until its time is up, so the
	// reference values are computed once per run.
	episode int
	// checkEvery is the distance in cycles between two reads of every
	// output (random stimulus only; a script expects every cycle).
	checkEvery int
	// hashSetups makes every timed set-up repetition serialise its
	// model; a repetition whose bytes differ from the first is one
	// failed check.
	hashSetups bool
	// quick is set on smoke configurations: one set-up repetition.
	quick bool
}

const (
	// Set-up is repeated from scratch until both minima are reached.
	setupMinReps    = 3
	setupMinSeconds = 2.0
	setupMaxReps    = 25
	// Untimed warm-up before every timed loop: at least this many
	// cycles and this share of the run's seconds.
	warmupMinCycles = 8
	warmupShare     = 0.05
	// settleCycles is the number of cycles after every reset that are
	// driven and checked but not timed (see loopResult).
	settleCycles = 8
)

// workloads is the catalogue, in the order they run. The sizes were
// taken on the two-core box the benchmark is accepted on; see README.md
// for the measured shares that justify each "why".
var workloads = []workload{
	{
		name:    "bulk-random",
		why:     "SHA L=7 bit-packed, batch 256, random stimulus, outputs read every 16 cycles: the paper's random regression on the worst-gap circuit; kernels do nearly all the work, the I/O boundary almost none",
		circuit: "SHA", l: 7, precision: c2nn.BitPacked, batch: 256,
		episode: settleCycles + 64, checkEvery: 16,
	},
	{
		name:    "tb-replay",
		why:     "UART L=4 bit-packed with activity skipping, replayed through testbench.Parse/RunOpts, every output expected every cycle: the forward pass is small, so engine I/O and script dispatch carry the cycle",
		circuit: "UART", l: 4, precision: c2nn.BitPacked, batch: 256, activity: true,
		script: true, episode: 2 + 64*tbSlot,
	},
	{
		name:    "compile-wide",
		why:     "UART L=11 bit-packed, batch 64, short random run checked every cycle: the paper's largest L; set-up (nn.Build) and memory are the point, the run is the shallow CSR-streaming regime",
		circuit: "UART", l: 11, precision: c2nn.BitPacked, batch: 64,
		episode: settleCycles + 24, checkEvery: 1, hashSetups: true,
	},
	{
		name:    "f32-paper",
		why:     "DMA L=4 float32, batch 256, random stimulus: the paper's CSR SpMM kernels behind the same driver, pool and I/O boundary, on the circuit with most flip-flops; a bit-packed-only change must stay flat",
		circuit: "DMA", l: 4, precision: c2nn.Float32, batch: 256,
		episode: settleCycles + 64, checkEvery: 16,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a configuration that runs in well under a
// second — UART at L=3, eight cycles, one set-up repetition — while
// keeping its driver, substrate and checks. The harness tests and
// -selftest use it.
func (w workload) smoke() workload {
	w.circuit, w.l = "UART", 3
	w.episode = 8
	if w.checkEvery > w.episode {
		w.checkEvery = 4
	}
	w.quick = true
	return w
}

func (w workload) engineOptions() c2nn.EngineOptions {
	return c2nn.EngineOptions{Batch: w.batch, Precision: w.precision, Activity: w.activity}
}

// words is the number of 64-lane words the batch occupies.
func (w workload) words() int { return (w.batch + 63) / 64 }
