package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"c2nn/internal/compile"
	"c2nn/internal/exec/backend"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
)

// session is the one way a subcommand runs a model, the run-side twin of
// internal/compile: one flag group (sessionFlags), one resolution of
// what to run (open), one engine with its stimulus source (start) and
// one driven, timed region (drive). run, profile and watch observe
// drive; fault shares open and hands the model to fault.Grade, which
// owns its KeepAllActivations engine and round loop.
type session struct {
	modelPath, circuit, tbPath, backend *string
	lutSize, batch, workers             *int
	seed                                *int64

	// Resolved by open.
	name   string // circuit name for reports
	model  *nn.Model
	res    *compile.Result   // every IR of the compile; nil under -model
	script *testbench.Script // nil without -tb
	// opts are the engine options the flags describe (batch, workers,
	// backend) plus the subcommand's trace; start builds the engine
	// from them and run -verify hands them to simengine.Verify.
	opts simengine.Options

	// Built by start.
	eng  *simengine.Engine
	stim *simengine.Stimulus
}

// sessionFlags declares the session flag group (README "Session flags")
// and the usage line on fs; own names the subcommand's own flags, and
// the two defaults that differ between subcommands are data.
func sessionFlags(fs *flag.FlagSet, own, backend string, batch int) *session {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [-model file.c2nn | -circuit name | -tb script.tb | file.v ...] [-L n] [-backend b] [-batch n] %s\n", fs.Name(), own)
		fs.PrintDefaults()
	}
	return &session{
		modelPath: fs.String("model", "", "compiled .c2nn model file to run instead of compiling"),
		circuit:   fs.String("circuit", "", "built-in benchmark circuit to compile (case-insensitive)"),
		tbPath:    fs.String("tb", "", "testbench script to replay (alone, it selects the circuit its file name starts with)"),
		lutSize:   fs.Int("L", 7, "LUT size (max inputs per Boolean function) when compiling"),
		backend:   fs.String("backend", backend, "execution substrate: float32, int32 or bitpacked"),
		batch:     fs.Int("batch", batch, "engine batch size (stimulus lanes)"),
		workers:   fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines (structural parallelism)"),
		seed:      fs.Int64("seed", 1, "random-stimulus seed"),
	}
}

// open resolves what the flags select, cheapest check first: the
// backend name, the testbench script, then the model — a -model file,
// or -circuit / the circuit -tb infers / Verilog files compiled by the
// compile driver at its canonical options, recording into tr.
func (s *session) open(top string, files []string, tr *obs.Trace) error {
	prec, err := backend.ParseKind(*s.backend)
	if err != nil {
		return err
	}
	s.opts = simengine.Options{Batch: *s.batch, Workers: *s.workers, Precision: prec, Trace: tr}
	if *s.tbPath != "" {
		text, err := os.ReadFile(*s.tbPath)
		if err != nil {
			return err
		}
		if s.script, err = testbench.Parse(string(text)); err != nil {
			return fmt.Errorf("%s: %w", *s.tbPath, err)
		}
	}
	if *s.modelPath != "" {
		if s.model, err = nn.LoadFile(*s.modelPath); err != nil {
			return err
		}
		s.name = s.model.CircuitName
		return nil
	}
	src, err := target(*s.circuit, *s.tbPath, top, files)
	if err != nil {
		return err
	}
	if s.res, err = compile.Run(src, compile.Options{L: *s.lutSize, Trace: tr}, nil); err != nil {
		return err
	}
	s.model, s.name = s.res.Model, src.Name
	return nil
}

// start builds the session's engine from opts and the stimulus source
// over its lanes; the caller closes s.eng.
func (s *session) start() (err error) {
	if s.eng, err = simengine.New(s.model, s.opts); err != nil {
		return err
	}
	s.stim = simengine.NewStimulus(s.model, s.eng.Batch(), *s.seed)
	return nil
}

// driven is what drive measured.
type driven struct {
	cycles  int
	elapsed time.Duration
	tb      testbench.Result
}

// errStop, returned by a drive observer, ends the run without an error.
var errStop = errors.New("stop requested")

// drive replays the session's testbench, when there is one, and then
// the given number of random-stimulus cycles. The "run" span and the
// returned cycles + elapsed are one measurement of that region.
// stepped, when non-nil, is called after every clock step (and script
// eval) and may return errStop; settled, when non-nil, is called with
// the loaded stimulus between the forward pass and the clock edge of
// every random cycle, where that cycle's outputs are valid.
func (s *session) drive(cycles int, settled func(cyc int, in simengine.Cycle), stepped func() error) (d driven, err error) {
	sp := s.opts.Trace.Begin("run").
		SetStr("circuit", s.name).
		SetStr("backend", s.opts.Precision.String()).
		SetInt("batch", int64(s.eng.Batch()))
	start := time.Now()
	defer func() {
		d.elapsed = time.Since(start)
		sp.SetInt("cycles", int64(d.cycles)).End()
		if errors.Is(err, errStop) {
			err = nil
		}
	}()
	if stepped == nil {
		stepped = func() error { return nil }
	}
	if s.script != nil {
		d.tb, err = s.script.RunOpts(s.eng, testbench.RunOptions{Trace: func(int) error { return stepped() }})
		d.cycles = d.tb.Steps
		if err != nil {
			return d, fmt.Errorf("replaying %s: %w", *s.tbPath, err)
		}
	}
	var in simengine.Cycle
	for cyc := 0; cyc < cycles; cyc++ {
		in = s.stim.Next(in)
		if err = s.stim.Load(s.eng, in); err != nil {
			return d, err
		}
		if settled == nil {
			s.eng.Step()
		} else {
			s.eng.Forward()
			settled(cyc, in)
			s.eng.LatchFeedback()
		}
		d.cycles++
		if err = stepped(); err != nil {
			return d, err
		}
	}
	return d, nil
}

// report prints the throughput line of a driven run, the paper's
// gates·cycles/s over exactly the region drive timed.
func (s *session) report(d driven) {
	lanes := s.eng.Batch()
	fmt.Printf("%s (L=%d, %s): %d cycles x %d lanes in %s = %.3E gates*cycles/s\n",
		s.name, s.model.L, s.opts.Precision, d.cycles, lanes, d.elapsed.Round(time.Microsecond),
		simengine.Throughput(s.model.GateCount, d.cycles, lanes, d.elapsed))
}
