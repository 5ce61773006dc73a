package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"c2nn"
	"c2nn/internal/circuits"
	"c2nn/internal/exec/backend"
	"c2nn/internal/exec/plan"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
	"c2nn/internal/testbench"
	"c2nn/internal/verilog"
)

// setUp is everything a user pays before the first cycle, through the
// public facade: generate the Verilog text, compile it, build the
// engine, and for a script workload parse the testbench.
func setUp(w workload, tb string) (*target, error) {
	c, err := circuits.ByName(w.circuit)
	if err != nil {
		return nil, err
	}
	model, err := c2nn.CompileVerilog(c.Generate(), c2nn.Options{Top: c.Top, L: w.l})
	if err != nil {
		return nil, err
	}
	eng, err := c2nn.NewEngine(model, w.engineOptions())
	if err != nil {
		return nil, err
	}
	t := &target{w: w, eng: eng}
	if w.script {
		if t.script, err = testbench.Parse(tb); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return t, nil
}

// modelHash is the SHA-256 of the model's serialised form: recompiles
// must be byte-identical.
func modelHash(m *c2nn.Model) ([sha256.Size]byte, error) {
	h := sha256.New()
	if _, err := m.Save(h); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("serialise model: %w", err)
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}

// setupResult is the outcome of the repeated set-up.
type setupResult struct {
	target  *target   // the last repetition's engine, the one simulated
	seconds []float64 // wall time of every repetition
	allocMB float64   // bytes the first repetition allocated
	checks  int64     // byte-identity comparisons between repetitions
	failed  int64
}

// repeatSetUp sets the workload up from scratch until it has done so
// three times and for two seconds (25 times at most), dropping
// everything and collecting garbage in between; the caller reports the
// median. When the workload asks for it, every repetition's model is
// serialised and must equal the first byte for byte.
func repeatSetUp(w workload, tb string) (*setupResult, error) {
	res := &setupResult{}
	var first [sha256.Size]byte
	var total float64
	for rep := 0; ; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		t, err := setUp(w, tb)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.ReadMemStats(&after)
		if rep == 0 {
			res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		}
		res.seconds = append(res.seconds, d)
		total += d
		if w.hashSetups {
			h, err := modelHash(t.eng.Model())
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				first = h
			} else {
				res.checks++
				if h != first {
					res.failed++
				}
			}
		}
		done := w.quick || rep+1 >= setupMaxReps ||
			(rep+1 >= setupMinReps && total >= setupMinSeconds)
		if done {
			res.target = t
			return res, nil
		}
		t.eng.Close()
	}
}

// stages holds what the traced run learns by making, one by one, the
// calls the facade makes: the time of each and the size of what it
// returned. The engine it ends with is the one the traced loop drives.
type stages struct {
	target *target
	model  *c2nn.Model
	plan   *plan.Plan
	// compile is the trace handed to the compile stages, read for the
	// spans the stages already record inside themselves ("tables",
	// "poly", "network").
	compile *obs.Trace

	sourceBytes  int
	gates, ffs   int
	luts, depth  int
	arenaBytes   int64
	parseS       float64
	elaborateS   float64
	mapS         float64
	buildS       float64
	planS        float64
	backendS     float64
	engineS      float64
	tbParseS     float64
	tbDirectives int
	totalS       float64
}

// tracedSetUp decomposes set-up into the calls CompileVerilog and
// NewEngine make, one span each. The engine is built with its runtime
// statistics on when the workload's forward passes can only be seen
// that way (script workloads).
func tracedSetUp(w workload, tb string, rec *recorder) (*stages, error) {
	st := &stages{compile: obs.New()}
	root := rec.begin("setup", noSpan)
	defer rec.end(root)
	timed := func(name string, f func() error) (float64, error) {
		sp := rec.begin(name, root)
		t0 := time.Now()
		err := f()
		d := time.Since(t0).Seconds()
		rec.end(sp)
		if err != nil {
			return d, fmt.Errorf("%s: %w", name, err)
		}
		return d, nil
	}

	c, err := circuits.ByName(w.circuit)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sources := c.Generate()
	for _, src := range sources {
		st.sourceBytes += len(src)
	}

	var design *verilog.Design
	if st.parseS, err = timed("verilog.BuildDesign", func() (err error) {
		design, err = verilog.BuildDesign(sources, nil)
		return err
	}); err != nil {
		return nil, err
	}
	var nl *c2nn.Netlist
	if st.elaborateS, err = timed("synth.Elaborate", func() (err error) {
		nl, err = synth.Elaborate(design, synth.Options{Top: c.Top, Optimize: true, Trace: st.compile})
		return err
	}); err != nil {
		return nil, err
	}
	st.gates, st.ffs = nl.NumGates(), nl.NumFFs()

	var mapping *lutmap.Mapping
	if st.mapS, err = timed("lutmap.MapNetlist", func() (err error) {
		mapping, err = lutmap.MapNetlist(nl, lutmap.Options{K: w.l, Algorithm: lutmap.PriorityCuts, Trace: st.compile})
		return err
	}); err != nil {
		return nil, err
	}
	st.luts, st.depth = len(mapping.Graph.LUTs), int(mapping.Graph.Depth())

	if st.buildS, err = timed("nn.Build", func() (err error) {
		st.model, err = nn.Build(nl, mapping, nn.BuildOptions{Merge: true, L: w.l, BuildTrace: st.compile})
		return err
	}); err != nil {
		return nil, err
	}

	// simengine.New lowers the plan and allocates the backend itself;
	// both are also called on their own here so each has its own time.
	if st.planS, err = timed("plan.CompileOpts", func() (err error) {
		st.plan, err = plan.CompileOpts(st.model, plan.Options{Activity: w.activity})
		return err
	}); err != nil {
		return nil, err
	}
	if st.backendS, err = timed("backend.New", func() error {
		pool := backend.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		be, err := backend.New(backendKind(w.precision), st.plan, w.batch, pool, nil)
		if err == nil {
			st.arenaBytes = be.MemoryBytes()
		}
		return err
	}); err != nil {
		return nil, err
	}
	opts := w.engineOptions()
	opts.Stats = w.script
	st.target = &target{w: w}
	if st.engineS, err = timed("simengine.New", func() (err error) {
		st.target.eng, err = simengine.New(st.model, opts)
		return err
	}); err != nil {
		return nil, err
	}
	if w.script {
		if st.tbParseS, err = timed("testbench.Parse", func() (err error) {
			st.target.script, err = testbench.Parse(tb)
			return err
		}); err != nil {
			return nil, err
		}
		st.tbDirectives = len(st.target.script.Directives)
	}
	st.totalS = time.Since(t0).Seconds()
	return st, nil
}

func backendKind(p c2nn.Precision) backend.Kind {
	switch p {
	case c2nn.Float32:
		return backend.Float32
	case c2nn.Int32:
		return backend.Int32
	}
	return backend.BitPacked
}

// spanSeconds sums the compile trace's spans of one name.
func (st *stages) spanSeconds(name string) float64 {
	for _, s := range st.compile.StatsByName() {
		if s.Name == name {
			return s.Total.Seconds()
		}
	}
	return 0
}
