package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"c2nn"
	"c2nn/internal/netlist"
	"c2nn/internal/testbench"
)

// Span names of the cycle loop, one per engine entry point.
const (
	spanCycle     = "cycle"
	spanReset     = "simengine.Reset"
	spanSetInput  = "simengine.SetInput"
	spanForward   = "simengine.Forward"
	spanGetOutput = "simengine.GetOutput"
	spanLatch     = "simengine.LatchFeedback"
	spanRunOpts   = "testbench.RunOpts"
)

// loopResult is what one cycle loop measured.
//
// The first cycles after every reset are driven and checked like any
// other but not timed: the bit-packed kernels skip all-zero words, so a
// freshly reset design costs a fraction of its steady state (a quarter
// on SHA at L=7) for about four cycles, and a long regression spends its
// time in the steady state.
type loopResult struct {
	steps   int           // cycles driven
	wall    time.Duration // the timed cycles' engine calls
	cycleUS []float64     // one sample per timed cycle (or protocol slot), µs per cycle
	// The fastest timed cycle that read the outputs and the fastest
	// that did not, µs; +Inf until there is one.
	quietCheckUS, quietPlainUS float64

	checks  int64  // output comparisons attempted
	failed  int64  // comparisons that differed, or were never reached
	mallocs uint64 // heap objects allocated while the loop ran
	diag    string // first mismatch, for the log
}

func newLoopResult() loopResult {
	return loopResult{quietCheckUS: math.Inf(1), quietPlainUS: math.Inf(1)}
}

func (r *loopResult) sample(us float64, cycles int, check bool) {
	r.wall += time.Duration(us * float64(cycles) * float64(time.Microsecond))
	r.cycleUS = append(r.cycleUS, us)
	if check {
		r.quietCheckUS = min(r.quietCheckUS, us)
	} else {
		r.quietPlainUS = min(r.quietPlainUS, us)
	}
}

// quietCycleUS is the wall time of one full cycle — stimulus load,
// forward pass, the reads that fall to it, latch — on an undisturbed
// machine: the fastest cycle seen of each kind, weighted by how often
// the kind occurs (one cycle in checkEvery reads the outputs).
//
// The benchmark is accepted on a shared two-core box on which memory
// bandwidth and single-thread speed swing by up to a factor of two for
// seconds or whole runs at a time. Over twenty 15-second runs of
// f32-paper there, the quartile spread of the median cycle time was
// 0.21 of its median, that of the best one-second stretch 0.35, that of
// the fastest cycle 0.11. Interference only ever adds time, so the
// fastest cycle is the steadiest estimate of what the code itself
// costs, and a change that makes the code slower makes it slower too.
func (r *loopResult) quietCycleUS(checkEvery int) float64 {
	switch {
	case math.IsInf(r.quietPlainUS, 1) && math.IsInf(r.quietCheckUS, 1):
		return 0
	case math.IsInf(r.quietPlainUS, 1):
		return r.quietCheckUS
	case math.IsInf(r.quietCheckUS, 1):
		return r.quietPlainUS
	}
	k := float64(checkEvery)
	return (r.quietPlainUS*(k-1) + r.quietCheckUS) / k
}

// stopFunc decides after every cycle whether the loop is done.
type stopFunc func(r *loopResult) bool

// stopAfter ends a loop once it has timed budget's worth of cycles and
// driven at least minSteps.
func stopAfter(budget time.Duration, minSteps int) stopFunc {
	return func(r *loopResult) bool {
		return r.steps >= minSteps && r.wall >= budget
	}
}

// warmup is the untimed run that precedes every timed loop.
func warmup(seconds float64) stopFunc {
	return stopAfter(time.Duration(warmupShare*seconds*float64(time.Second)), warmupMinCycles)
}

// target is one engine ready to be driven over the workload's episode.
type target struct {
	w      workload
	eng    *c2nn.Engine
	script *testbench.Script // script workloads only
	ep     *episode
}

// run replays the episode from reset, over and over, until stop says
// the loop is done, and checks every output it reads against the
// reference. With a recorder every engine call is wrapped in a span.
func (t *target) run(stop stopFunc, rec *recorder) loopResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res loopResult
	if t.w.script {
		res = t.runScript(stop, rec)
	} else {
		res = t.runDirect(stop, rec)
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	return res
}

// runDirect drives the engine the way a random regression does: load
// every input, settle, read every output on the cycles that check, latch.
// The clock of a cycle covers exactly those engine calls; generating the
// stimulus and comparing the values read happen outside it.
func (t *target) runDirect(stop stopFunc, rec *recorder) loopResult {
	res := newLoopResult()
	eng, ep := t.eng, t.ep
	settle := min(settleCycles, len(ep.cycles)/2)
	narrow := make([][]uint64, len(ep.outputs))
	wide := make([][][]bool, len(ep.outputs))
	for {
		sp := rec.begin(spanReset, noSpan)
		eng.Reset()
		rec.end(sp)
		for c := range ep.cycles {
			t0 := time.Now()
			cyc := rec.begin(spanCycle, noSpan)
			for i := range ep.cycles[c] {
				st := &ep.cycles[c][i]
				sp = rec.begin(spanSetInput, cyc)
				err := setInput(eng, st)
				rec.end(sp)
				if err != nil {
					return t.abort(res, err)
				}
			}
			sp = rec.begin(spanForward, cyc)
			eng.Forward()
			rec.end(sp)
			if ep.check[c] {
				for o := range ep.outputs {
					sp = rec.begin(spanGetOutput, cyc)
					var err error
					narrow[o], wide[o], err = getOutput(eng, &ep.outputs[o])
					rec.end(sp)
					if err != nil {
						return t.abort(res, err)
					}
				}
			}
			sp = rec.begin(spanLatch, cyc)
			eng.LatchFeedback()
			rec.end(sp)
			rec.end(cyc)
			res.steps++
			if c >= settle {
				res.sample(float64(time.Since(t0))/float64(time.Microsecond), 1, ep.check[c])
			}

			if ep.check[c] {
				for o := range ep.outputs {
					bad := compare(&ep.want[c][o], narrow[o], wide[o])
					res.checks += int64(t.w.batch)
					res.failed += int64(bad)
					if bad > 0 && res.diag == "" {
						res.diag = fmt.Sprintf("cycle %d port %s: %d lanes differ from gatesim", c, ep.outputs[o].Name, bad)
					}
				}
			}
			if stop(&res) {
				return res
			}
		}
	}
}

// abort ends a loop the engine refused to continue: every check of the
// episode that was not reached counts as failed.
func (t *target) abort(res loopResult, err error) loopResult {
	missed := t.ep.checks - res.checks%t.ep.checks
	res.checks += missed
	res.failed += missed
	res.diag = "aborted: " + err.Error()
	return res
}

func setInput(eng *c2nn.Engine, st *stim) error {
	if st.bits == nil {
		return eng.SetInput(st.port, st.lanes)
	}
	for lane, bits := range st.bits {
		if err := eng.SetInputBits(st.port, lane, bits); err != nil {
			return err
		}
	}
	return nil
}

// getOutput reads one output port in every lane: one value per lane for
// ports of up to 64 bits, every bit per lane for wider ones.
func getOutput(eng *c2nn.Engine, port *netlist.Port) ([]uint64, [][]bool, error) {
	if port.Width() <= 64 {
		lanes, err := eng.GetOutput(port.Name)
		return lanes, nil, err
	}
	bits := make([][]bool, eng.Batch())
	for lane := range bits {
		var err error
		if bits[lane], err = eng.GetOutputBits(port.Name, lane); err != nil {
			return nil, nil, err
		}
	}
	return nil, bits, nil
}

// compare returns the number of lanes whose value differs from the
// reference.
func compare(want *expect, narrow []uint64, wide [][]bool) int {
	bad := 0
	if want.lanes != nil {
		for lane, v := range want.lanes {
			if narrow[lane] != v {
				bad++
			}
		}
		return bad
	}
	for lane, bits := range wide {
		word := want.words[lane/64]
		for i, b := range bits {
			if b != (word[i]>>uint(lane%64)&1 == 1) {
				bad++
				break
			}
		}
	}
	return bad
}

// errLoopDone stops a script replay whose time is up; RunOpts wraps the
// callback's error with %w, so errors.Is finds it.
var errLoopDone = errors.New("benchmark: loop done")

// runScript drives the engine through the testbench runner. The script
// begins with a reset and expects every output in every cycle, so one
// RunOpts call is one episode. Cycle boundaries are the runner's own
// Trace callback, which fires after every step; nothing inside RunOpts
// can be wrapped from here.
//
// A protocol replay alternates between busy and idle cycles that differ
// several times in cost, and the median of such a two-humped sample
// jumps between the humps. One timing sample is therefore the mean
// cycle time over one protocol slot, which holds the same work every
// time. The slot that follows the reset is not timed.
func (t *target) runScript(stop stopFunc, rec *recorder) loopResult {
	window := min(tbSlot, len(t.ep.cycles)/2)
	res := newLoopResult()
	for {
		var windowStart time.Time
		inEpisode := 0
		sp := rec.begin(spanRunOpts, noSpan)
		run, err := t.script.RunOpts(t.eng, testbench.RunOptions{Trace: func(int) error {
			now := time.Now()
			res.steps++
			inEpisode++
			if inEpisode > window && inEpisode%window == 0 {
				res.sample(float64(now.Sub(windowStart))/float64(time.Microsecond)/float64(window), window, true)
			}
			if inEpisode%window == 0 {
				windowStart = now
			}
			if stop(&res) {
				return errLoopDone
			}
			return nil
		}})
		rec.end(sp)
		res.checks += int64(run.Checks)
		switch {
		case errors.Is(err, errLoopDone):
			return res
		case err != nil:
			// A failed expectation aborts the replay. The comparison
			// that failed is the last one counted; none after it ran.
			missed := t.ep.checks - int64(run.Checks)
			res.checks += missed
			res.failed += missed
			if run.Checks > 0 {
				res.failed++
			}
			res.diag = "aborted: " + err.Error()
			return res
		}
	}
}
