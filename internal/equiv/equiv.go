package equiv

import (
	"fmt"
	"time"

	"c2nn/internal/aig"
	"c2nn/internal/compile"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
)

// StagePair names one miter between two pipeline IRs.
type StagePair string

// The three stage miters. NetlistLUT is deliberately redundant with the
// other two — the transitive check catches a bug that two compensating
// encoder errors would hide.
const (
	StageNetlistAIG StagePair = "netlist-aig"
	StageAIGLUT     StagePair = "aig-lut"
	StageNetlistLUT StagePair = "netlist-lut"
)

// AllStages lists every stage miter in pipeline order.
func AllStages() []StagePair {
	return []StagePair{StageNetlistAIG, StageAIGLUT, StageNetlistLUT}
}

// Options configures a proof. The zero value proves all three stage
// miters plus the per-LUT chain with the default budgets.
type Options struct {
	// Stages selects which miters to build; nil means all three.
	Stages []StagePair
	// SkipChain disables the per-LUT table→polynomial→threshold proof.
	SkipChain bool

	// PatternWords sets the initial random-simulation width in 64-lane
	// words (default 16, i.e. 1024 patterns).
	PatternWords int
	// MaxRounds bounds the sweep's refine iterations (default 8).
	MaxRounds int
	// PairBudget is the conflict budget per candidate-pair SAT call
	// (default 300); pairs exceeding it are deferred to the
	// escalating-budget hardening pass, not failed.
	PairBudget int64
	// FinalBudget is the conflict budget per output miter (default
	// 200000); exceeding it makes the verdict Inconclusive.
	FinalBudget int64
	// Seed drives the random simulation patterns (default 1).
	Seed int64

	// Trace, when non-nil, records equiv.cnf and equiv.solve spans per
	// miter.
	Trace *obs.Trace
}

func (o *Options) fill() {
	if o.PatternWords <= 0 {
		o.PatternWords = 16
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 8
	}
	if o.PairBudget <= 0 {
		o.PairBudget = 300
	}
	if o.FinalBudget <= 0 {
		o.FinalBudget = 200000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Stages == nil {
		o.Stages = AllStages()
	}
}

// Result is the complete equivalence certificate of one compile: one
// miter per requested stage pair plus the per-LUT proof chain.
type Result struct {
	Circuit     string         `json:"circuit"`
	L           int            `json:"l"`
	Sweep       *SweepStats    `json:"sweep"`
	Miters      []*MiterResult `json:"miters"`
	Chain       *ChainReport   `json:"chain,omitempty"`
	Equivalent  bool           `json:"equivalent"`
	TotalMillis float64        `json:"total_ms"`
}

// FirstCex returns the first counterexample across the miters, nil when
// every miter is UNSAT.
func (r *Result) FirstCex() *Counterexample {
	for _, m := range r.Miters {
		if m.Cex != nil {
			return m.Cex
		}
	}
	return nil
}

// Prove runs the full equivalence check for a compiled pipeline: the
// caller supplies every IR stage of one compile (as produced by
// compile.Run)
// and receives the certificate. model may be nil when Options.SkipChain
// is set.
func Prove(nl *netlist.Netlist, ag *aig.AIG, aigOuts []aig.Lit, m *lutmap.Mapping, model *nn.Model, opts Options) (*Result, error) {
	opts.fill()
	start := time.Now()
	if errs := VerifyPairing(nl, ag, aigOuts, m); len(errs) > 0 {
		return nil, fmt.Errorf("equiv: stage pairing broken: %s", errs[0])
	}
	res := &Result{Circuit: nl.Name, L: m.Graph.K, Equivalent: true}

	nlSide, err := netlistSide(nl)
	if err != nil {
		return nil, err
	}
	agSide := aigSide(ag, aigOuts)
	lSide := lutSide(m.Graph)
	all := []*sideIR{nlSide, agSide, lSide}
	pairs := map[StagePair][2]int{
		StageNetlistAIG: {0, 1},
		StageAIGLUT:     {1, 2},
		StageNetlistLUT: {0, 2},
	}

	// Encode only the sides the requested stages touch, renumbering the
	// pair indices onto the compacted side list.
	used := make([]int, 3)
	for i := range used {
		used[i] = -1
	}
	var sides []*sideIR
	pairIdx := make(map[StagePair][2]int, len(opts.Stages))
	for _, stage := range opts.Stages {
		p, ok := pairs[stage]
		if !ok {
			return nil, fmt.Errorf("equiv: unknown stage pair %q", stage)
		}
		for k, si := range p {
			if used[si] < 0 {
				used[si] = len(sides)
				sides = append(sides, all[si])
			}
			p[k] = used[si]
		}
		pairIdx[stage] = p
	}

	numPIs := len(m.PINets)
	cfg := miterConfig{
		patternWords:   opts.PatternWords,
		maxRounds:      opts.MaxRounds,
		pairBudget:     opts.PairBudget,
		finalBudget:    opts.FinalBudget,
		seed:           opts.Seed,
		maxCexPerRound: 256,
	}
	sweep, miters, err := proveMiters(opts.Stages, sides, pairIdx, numPIs, cfg, opts.Trace)
	if err != nil {
		return nil, err
	}
	res.Sweep = sweep
	res.Miters = miters
	for _, mr := range miters {
		if mr.Status != Equivalent {
			res.Equivalent = false
		}
	}

	if !opts.SkipChain {
		if model == nil {
			return nil, fmt.Errorf("equiv: the per-LUT chain needs a compiled model (or set SkipChain)")
		}
		sp := opts.Trace.Begin("equiv.chain")
		res.Chain = CheckLUTChain(m.Graph, model)
		sp.SetInt("luts", int64(res.Chain.LUTs)).
			SetInt("rows", res.Chain.RowsChecked).
			SetInt("issues", int64(len(res.Chain.Issues))).End()
		if !res.Chain.OK() {
			res.Equivalent = false
		}
	}
	res.TotalMillis = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// VerifyPairing checks the positional invariants that let the miters
// share primary-input variables across IRs: the AIG and the mapping
// must list the netlist's combinational inputs and outputs in netlist
// order (rule EQ006's substance). Returns a description per violation.
func VerifyPairing(nl *netlist.Netlist, ag *aig.AIG, aigOuts []aig.Lit, m *lutmap.Mapping) []string {
	var errs []string
	combIns := nl.CombInputs()
	pis := make([]netlist.NetID, 0, len(combIns))
	for _, id := range combIns {
		if id != netlist.ConstZero && id != netlist.ConstOne {
			pis = append(pis, id)
		}
	}
	combOuts := nl.CombOutputs()

	if ag.NumPIs() != len(pis) {
		errs = append(errs, fmt.Sprintf("AIG has %d PIs, netlist has %d combinational inputs", ag.NumPIs(), len(pis)))
	}
	if len(aigOuts) != len(combOuts) {
		errs = append(errs, fmt.Sprintf("AIG miter has %d outputs, netlist has %d combinational outputs", len(aigOuts), len(combOuts)))
	}
	if m.Graph.NumPIs != len(pis) {
		errs = append(errs, fmt.Sprintf("LUT graph has %d PIs, netlist has %d combinational inputs", m.Graph.NumPIs, len(pis)))
	}
	if len(m.PINets) != len(pis) {
		errs = append(errs, fmt.Sprintf("mapping records %d PI nets, netlist has %d combinational inputs", len(m.PINets), len(pis)))
	} else {
		for i, id := range pis {
			if m.PINets[i] != id {
				errs = append(errs, fmt.Sprintf("mapping PI %d is net %s, netlist combinational input %d is %s",
					i, nl.NameOf(m.PINets[i]), i, nl.NameOf(id)))
				break
			}
		}
	}
	if len(m.OutputNets) != len(combOuts) {
		errs = append(errs, fmt.Sprintf("mapping records %d output nets, netlist has %d combinational outputs", len(m.OutputNets), len(combOuts)))
	} else {
		for j, id := range combOuts {
			if m.OutputNets[j] != id {
				errs = append(errs, fmt.Sprintf("mapping output %d is net %s, netlist combinational output %d is %s",
					j, nl.NameOf(m.OutputNets[j]), j, nl.NameOf(id)))
				break
			}
		}
	}
	if len(m.Graph.Outputs) != len(combOuts) {
		errs = append(errs, fmt.Sprintf("LUT graph has %d outputs, netlist has %d combinational outputs", len(m.Graph.Outputs), len(combOuts)))
	}
	return errs
}

// ProveSource compiles src through the compile driver and proves the
// stages of that one compile — the convenience entry behind the facade
// and CLI. With Options.SkipChain the network is never built.
func ProveSource(src compile.Source, copts compile.Options, opts Options) (*Result, error) {
	var ag *aig.AIG
	var aigOuts []aig.Lit
	res, err := compile.Run(src, copts, func(st compile.Stage, r *compile.Result) error {
		if st == compile.StageMapping {
			ag, aigOuts = r.AIG, r.AIGOuts
			if opts.SkipChain {
				return compile.Stop
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Prove(res.Netlist, ag, aigOuts, res.Mapping, res.Model, opts)
}
