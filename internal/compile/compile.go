// Package compile is the one driver of the paper's Fig. 1 flow:
//
//	Verilog ─▶ netlist ─▶ AIG ─▶ K-LUT graph (─▶ coalesce) ─▶ polynomials
//	─▶ threshold network
//
// Run walks the stages once, for every user of the compiler — the c2nn
// facade, every cmd/c2nn subcommand, the irlint verifier, the
// equivalence checker and the experiment harness. What varies between
// them is data: the Source selecting the circuit, the Options tuning
// the stages, and an observer called at each stage boundary.
package compile

import (
	"errors"

	"c2nn/internal/aig"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/synth"
	"c2nn/internal/verilog"
)

// Options tunes the stages. The zero value means L = 7, priority-cuts
// mapping, no coalescing, no layer merging, no tracing.
type Options struct {
	// L is the LUT size hyperparameter. Larger L gives shallower
	// networks with exponentially more connections (§III-B1).
	L int
	// CoalesceWide, when > 0, merges chains of pure AND/OR LUTs into
	// wide LUTs of up to this many inputs after mapping (§V).
	CoalesceWide int
	// Merge applies the depth-halving layer merge of §III-D (Fig. 5)
	// to the built network.
	Merge bool
	// Trace, when non-nil, records one span per stage (compile, parse,
	// elaborate, lutmap, aig, cuts, tables, normalize, coalesce, nn,
	// poly, network, merge) with IR-size attributes.
	Trace *obs.Trace
}

// Stage names a stage boundary: the IR of that name has just been
// produced.
type Stage int

// Stage boundaries, in pipeline order.
const (
	StageDesign Stage = iota
	StageNetlist
	StageAIG
	StageMapping
	StageModel
)

// Result holds the IRs of one compile. Netlist, Mapping and Model stay
// set once produced. Design and AIG/AIGOuts are transient, so that a
// long network build does not keep its grandparents alive: each is
// cleared after the boundary of the stage that consumed it (Design
// after StageNetlist, the AIG after StageMapping). An observer that
// needs one later keeps its own reference.
type Result struct {
	Design  *verilog.Design
	Netlist *netlist.Netlist
	// AIG is the and-inverter graph of the flip-flop-cut combinational
	// core — the object that is mapped — and AIGOuts the literal of
	// every combinational output, in Netlist.CombOutputs() order.
	AIG     *aig.AIG
	AIGOuts []aig.Lit
	Mapping *lutmap.Mapping
	Model   *nn.Model
}

// Stop, returned by an observer, ends the walk at that boundary: Run
// returns the Result as it stands and a nil error.
var Stop = errors.New("compile: stop")

// StopAfter returns an observer that ends the walk at the given
// boundary.
func StopAfter(at Stage) func(Stage, *Result) error {
	return func(st Stage, _ *Result) error {
		if st == at {
			return Stop
		}
		return nil
	}
}

// Run compiles src stage by stage. after, when non-nil, is called at
// every stage boundary with the Result so far; any error it returns
// other than Stop aborts the compile and is returned as is.
func Run(src Source, opts Options, after func(Stage, *Result) error) (*Result, error) {
	if opts.L == 0 {
		opts.L = 7
	}
	csp := opts.Trace.Begin("compile").SetStr("circuit", src.Name).SetInt("l", int64(opts.L))
	defer csp.End()
	res := &Result{}
	if err := res.walk(src, opts, after); err != nil && !errors.Is(err, Stop) {
		return nil, err
	}
	return res, nil
}

func (res *Result) walk(src Source, opts Options, after func(Stage, *Result) error) error {
	tr := opts.Trace
	boundary := func(st Stage) error {
		if after == nil {
			return nil
		}
		return after(st, res)
	}
	var err error
	psp := tr.Begin("parse")
	if res.Design, err = verilog.BuildDesign(src.Files, src.Order); err != nil {
		return err
	}
	psp.SetInt("modules", int64(len(res.Design.Modules))).End()
	if err = boundary(StageDesign); err != nil {
		return err
	}

	esp := tr.Begin("elaborate")
	res.Netlist, err = synth.Elaborate(res.Design, synth.Options{Top: src.Top, Optimize: true, Trace: tr})
	if err != nil {
		return err
	}
	nl := res.Netlist
	esp.SetInt("gates", int64(nl.NumGates())).
		SetInt("ffs", int64(nl.NumFFs())).
		SetInt("nets", int64(nl.NumNets())).End()
	if err = boundary(StageNetlist); err != nil {
		return err
	}
	res.Design = nil

	msp := tr.Begin("lutmap")
	if res.AIG, res.AIGOuts, err = lutmap.Lower(nl, tr); err != nil {
		return err
	}
	if err = boundary(StageAIG); err != nil {
		return err
	}
	if res.Mapping, err = lutmap.MapLowered(nl, res.AIG, res.AIGOuts, lutmap.Options{K: opts.L, Trace: tr}); err != nil {
		return err
	}
	msp.End()
	if opts.CoalesceWide > 0 {
		wsp := tr.Begin("coalesce")
		g, err := lutmap.Coalesce(res.Mapping.Graph, opts.CoalesceWide)
		if err != nil {
			return err
		}
		wsp.SetInt("luts", int64(len(g.LUTs))).End()
		res.Mapping.Graph = g
	}
	if err = boundary(StageMapping); err != nil {
		return err
	}
	res.AIG, res.AIGOuts = nil, nil

	res.Model, err = nn.Build(nl, res.Mapping, nn.BuildOptions{Merge: opts.Merge, L: opts.L, BuildTrace: tr})
	if err != nil {
		return err
	}
	return boundary(StageModel)
}
