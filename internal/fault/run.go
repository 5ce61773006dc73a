package fault

import (
	"fmt"
	"slices"
	"time"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// Config tunes a coverage-grading run.
type Config struct {
	// Precision selects the execution substrate. The bit-packed backend
	// grades 63 faulty machines per uint64 word.
	Precision simengine.Precision
	// Batch is the engine batch size: lane 0 is the golden machine,
	// lanes 1..Batch-1 carry one fault class each per round. Default 64.
	Batch int
	// Workers is the engine worker-pool width (0 = GOMAXPROCS).
	Workers int
	// SEUForward is the forward-pass index on which SEU faults flip
	// (per round; negative defaults to 1).
	SEUForward int
	// RandomCycles appends this many random-stimulus cycles after the
	// script (or forms the whole run when no script is given). The
	// stimuli are identical in every round and lane.
	RandomCycles int
	// Seed seeds the random stimuli.
	Seed int64
	// Trace, when non-nil, records a "fault.grade" root span with one
	// "round" child per batch pass (plus the engine's forward/kernel
	// spans underneath) and a "fault.forces" counter of overlay unit
	// writes. Nil disables recording.
	Trace *obs.Trace
}

// Report is the fault-coverage result of one grading run.
type Report struct {
	Circuit string `json:"circuit"`
	L       int    `json:"l"`
	Backend string `json:"backend"`
	Batch   int    `json:"batch"`

	// RawFaults counts enumerated faults before collapsing; Classes
	// counts equivalence classes after collapsing.
	RawFaults  int `json:"raw_faults"`
	Classes    int `json:"classes"`
	Untestable int `json:"untestable"`
	Dominated  int `json:"dominated"`
	Unmodeled  int `json:"unmodeled"`
	Simulated  int `json:"simulated"`

	Detected   int `json:"detected"`
	Undetected int `json:"undetected"`
	// Coverage is Detected / Simulated in percent.
	Coverage float64 `json:"coverage"`

	// Rounds is the number of batch passes; Cycles the clock cycles
	// driven per round.
	Rounds int `json:"rounds"`
	Cycles int `json:"cycles"`

	ElapsedMS float64 `json:"elapsed_ms"`
	// FaultsPerSec is simulated fault classes graded per second.
	FaultsPerSec float64 `json:"faults_per_sec"`

	// DetectedFaults and UndetectedFaults name the class
	// representatives, in enumeration order.
	DetectedFaults   []string `json:"detected_faults"`
	UndetectedFaults []string `json:"undetected_faults"`
}

// Grade enumerates nothing itself: it grades the simulated classes of
// an already-collapsed universe against the model, replaying the given
// testbench script (may be nil) and/or random stimuli in every round,
// and diffing every faulty lane against the golden lane 0 at each
// expectation (script mode) or at every output port every cycle
// (random mode).
func Grade(model *nn.Model, g *lutmap.Graph, u *Universe, script *testbench.Script, cfg Config) (*Report, error) {
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	if cfg.Batch < 2 {
		return nil, fmt.Errorf("fault: batch %d leaves no fault lanes (lane 0 is golden)", cfg.Batch)
	}
	if script == nil && cfg.RandomCycles <= 0 {
		return nil, fmt.Errorf("fault: nothing to replay (no script, no random cycles)")
	}

	eng, err := simengine.New(model, simengine.Options{
		Batch:              cfg.Batch,
		Workers:            cfg.Workers,
		Precision:          cfg.Precision,
		KeepAllActivations: true,
		Trace:              cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	sims := u.SimulatedClasses()
	gsp := cfg.Trace.Begin("fault.grade").
		SetStr("circuit", model.CircuitName).
		SetStr("backend", cfg.Precision.String()).
		SetInt("classes", int64(len(u.Classes))).
		SetInt("simulated", int64(len(sims)))
	defer gsp.End()
	detected := make([]bool, len(u.Classes))
	lanesPerRound := cfg.Batch - 1
	start := time.Now()
	rounds := 0
	cyclesPerRound := 0

	for lo := 0; lo < len(sims); lo += lanesPerRound {
		hi := lo + lanesPerRound
		if hi > len(sims) {
			hi = len(sims)
		}
		chunk := sims[lo:hi]
		rounds++
		rsp := cfg.Trace.Begin("round").SetInt("lanes", int64(len(chunk)))

		ov, err := NewOverlay(model, g, cfg.SEUForward)
		if err != nil {
			return nil, err
		}
		ov.Instrument(cfg.Trace)
		for i, ci := range chunk {
			if err := ov.AddFault(u.Classes[ci].Rep, i+1); err != nil {
				return nil, err
			}
		}
		eng.Reset()
		if err := eng.WithFaults(ov); err != nil {
			return nil, err
		}

		// diff compares every faulty lane of one output port against
		// the golden lane, marking newly detected classes.
		diff := func(port string) error {
			out, err := eng.GetOutput(port)
			if err != nil {
				return err
			}
			stride := len(out) / eng.Batch()
			for i, ci := range chunk {
				if !slices.Equal(out[(i+1)*stride:(i+2)*stride], out[:stride]) {
					detected[ci] = true
				}
			}
			return nil
		}

		cycles := 0
		if script != nil {
			res, err := script.RunOpts(eng, testbench.RunOptions{
				Uniform:  true,
				Observer: func(line int, port string) error { return diff(port) },
			})
			if err != nil {
				return nil, fmt.Errorf("fault: replaying script: %w", err)
			}
			cycles += res.Steps
		}
		if cfg.RandomCycles > 0 {
			// Every round replays the same random stimuli so all fault
			// classes are graded against one stimulus set.
			stim := simengine.NewStimulus(model, 1, cfg.Seed)
			var c simengine.Cycle
			for cyc := 0; cyc < cfg.RandomCycles; cyc++ {
				c = stim.Next(c)
				if err := stim.Load(eng, c); err != nil {
					return nil, err
				}
				eng.Forward()
				for _, out := range model.Outputs {
					if err := diff(out.Name); err != nil {
						return nil, err
					}
				}
				eng.LatchFeedback()
				cycles++
			}
		}
		if err := eng.WithFaults(nil); err != nil {
			return nil, err
		}
		cyclesPerRound = cycles
		rsp.SetInt("cycles", int64(cycles)).End()
	}
	elapsed := time.Since(start)

	simulated, untestable, dominated, unmodeled := u.Counts()
	rep := &Report{
		Circuit:    model.CircuitName,
		L:          model.L,
		Backend:    cfg.Precision.String(),
		Batch:      cfg.Batch,
		RawFaults:  u.Raw,
		Classes:    len(u.Classes),
		Untestable: untestable,
		Dominated:  dominated,
		Unmodeled:  unmodeled,
		Simulated:  simulated,
		Rounds:     rounds,
		Cycles:     cyclesPerRound,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
	}
	for _, ci := range sims {
		name := u.Classes[ci].Rep.String()
		if detected[ci] {
			rep.Detected++
			rep.DetectedFaults = append(rep.DetectedFaults, name)
		} else {
			rep.Undetected++
			rep.UndetectedFaults = append(rep.UndetectedFaults, name)
		}
	}
	if rep.Simulated > 0 {
		rep.Coverage = 100 * float64(rep.Detected) / float64(rep.Simulated)
	}
	if elapsed > 0 {
		rep.FaultsPerSec = float64(rep.Simulated) / elapsed.Seconds()
	}
	return rep, nil
}

// String renders the report as the two-line text summary of the CLI.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%s (L=%d, %s): %d raw faults -> %d classes (%d simulated, %d untestable, %d dominated, %d unmodeled)\n"+
			"detected %d/%d (%.1f%% coverage) in %d round(s) x %d cycle(s), %.3g faults/s\n",
		r.Circuit, r.L, r.Backend, r.RawFaults, r.Classes,
		r.Simulated, r.Untestable, r.Dominated, r.Unmodeled,
		r.Detected, r.Simulated, r.Coverage, r.Rounds, r.Cycles, r.FaultsPerSec)
}
