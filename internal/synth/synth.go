// Package synth elaborates a parsed Verilog design into a flat gate-level
// netlist (paper Fig. 1, module 1, together with internal/verilog).
//
// Elaboration performs, in order:
//
//   - parameter and generate resolution (constants, genvar loops)
//   - hierarchy flattening: every instance is inlined into one netlist,
//     the "unpacking of the modules" of paper §III-C, which gives the
//     downstream LUT mapper freedom across module boundaries
//   - vector bit-blasting: every multi-bit operator is lowered to
//     single-bit gates (ripple adders, borrow subtractors, shift-add
//     multipliers, restoring dividers, barrel shifters, comparison
//     chains, mux trees)
//   - flip-flop inference from always @(posedge …) blocks with clock
//     unification (§III-C): all clocked processes are referenced to one
//     global clock; additional edges in a sensitivity list are treated
//     as synchronous level conditions
//
// The result is a netlist.Netlist whose flip-flop cut (pseudo-inputs and
// pseudo-outputs) yields the purely combinational DAG that the rest of
// the pipeline consumes.
package synth

import (
	"fmt"

	"c2nn/internal/netlist"
	"c2nn/internal/obs"
	"c2nn/internal/verilog"
)

// Options configures elaboration.
type Options struct {
	// Top is the name of the top-level module. If empty, the design must
	// contain exactly one module that is never instantiated.
	Top string
	// Optimize runs netlist.Optimize after elaboration (default-on
	// behaviour is selected by the helpers; here zero value means off).
	Optimize bool
	// MaxDepth bounds hierarchy depth to catch recursive instantiation.
	// 0 means the default of 64.
	MaxDepth int
	// Trace, when non-nil, records elaboration sub-spans: "bitblast"
	// (hierarchy flattening + vector lowering, the bulk of the work),
	// "clocks" (clock unification) and "netlist.opt" (the optional
	// post-elaboration optimiser).
	Trace *obs.Trace
}

// Elaborate synthesises the design into a flat netlist.
func Elaborate(design *verilog.Design, opts Options) (*netlist.Netlist, error) {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 64
	}
	topName := opts.Top
	if topName == "" {
		var err error
		topName, err = inferTop(design)
		if err != nil {
			return nil, err
		}
	}
	top, ok := design.Modules[topName]
	if !ok {
		return nil, fmt.Errorf("synth: top module %q not found", topName)
	}

	el := &elaborator{
		design: design,
		nl:     netlist.New(topName),
		opts:   opts,
	}
	bsp := opts.Trace.Begin("bitblast")
	sc, err := el.elaborateModule(top, nil, "", 0)
	if err != nil {
		return nil, err
	}
	if err := el.bindTopPorts(top, sc); err != nil {
		return nil, err
	}
	bsp.SetInt("gates", int64(el.nl.GateCount())).End()
	csp := opts.Trace.Begin("clocks")
	if err := el.resolveClocks(); err != nil {
		return nil, err
	}
	csp.End()
	// Validate before optimising: Optimize folds buffers, which would
	// otherwise mask multiple-driver errors.
	if err := el.nl.Validate(); err != nil {
		return nil, err
	}
	if opts.Optimize {
		osp := opts.Trace.Begin("netlist.opt")
		if _, err := el.nl.Optimize(); err != nil {
			return nil, err
		}
		osp.SetInt("gates", int64(el.nl.GateCount())).End()
	}
	return el.nl, nil
}

// ElaborateSource is a convenience wrapper: parse the sources and
// elaborate with optimisation enabled.
func ElaborateSource(top string, sources map[string]string) (*netlist.Netlist, error) {
	design, err := verilog.BuildDesign(sources, nil)
	if err != nil {
		return nil, err
	}
	return Elaborate(design, Options{Top: top, Optimize: true})
}

// inferTop picks the unique module that is never instantiated.
func inferTop(design *verilog.Design) (string, error) {
	instantiated := make(map[string]bool)
	var scanItems func(items []verilog.Item)
	scanItems = func(items []verilog.Item) {
		for _, it := range items {
			switch x := it.(type) {
			case *verilog.Instance:
				instantiated[x.ModuleName] = true
			case *verilog.GenerateFor:
				scanItems(x.Body)
			case *verilog.GenerateIf:
				scanItems(x.Then)
				scanItems(x.Else)
			}
		}
	}
	for _, m := range design.Modules {
		scanItems(m.Items)
	}
	var tops []string
	for _, name := range design.Order {
		if !instantiated[name] {
			tops = append(tops, name)
		}
	}
	if len(tops) != 1 {
		return "", fmt.Errorf("synth: cannot infer top module (candidates: %v); pass Options.Top", tops)
	}
	return tops[0], nil
}

type elaborator struct {
	design *verilog.Design
	nl     *netlist.Netlist
	opts   Options

	// clockName is the unified global clock (hierarchical name of the
	// first clock encountered); see resolveClocks.
	clockName string

	// ffBanks collects the flip-flop banks of all clocked blocks until
	// clock domains are resolved after hierarchy elaboration.
	ffBanks []ffBank

	// funcDepth guards against runaway function recursion.
	funcDepth int
}

// ffBank is the deferred output of one clocked always block. Init
// values resolve lazily (initial blocks may appear after the always
// block in the source).
type ffBank struct {
	clkNet  netlist.NetID
	clkName string
	negedge bool
	d, q    []netlist.NetID
	sig     []*signal
	bit     []int
}

// resolveClocks performs clock unification (paper §III-C). Clock nets
// are traced through buffer chains to their source; the first posedge
// clock becomes the single global clock whose edge is the simulation
// step. Banks on any other clock — a second clock pin, a derived or
// divided clock, or a negedge — are resynchronised into the global
// domain with an edge detector ("adding some logic gates", as the paper
// puts it): prev samples the clock every global cycle and
// enable = clk & ~prev (or the falling-edge dual), gating each D with
// a hold mux.
func (el *elaborator) resolveClocks() error {
	if len(el.ffBanks) == 0 {
		return nil
	}
	// Trace through buffers to canonical clock roots.
	drv := el.nl.DriverIndex()
	root := func(id netlist.NetID) netlist.NetID {
		for hops := 0; hops < 1<<16; hops++ {
			gi := drv[id]
			if gi < 0 || el.nl.Gates[gi].Kind != netlist.Buf {
				return id
			}
			id = el.nl.Gates[gi].In[0]
		}
		return id
	}

	// Pick the global clock: prefer the first posedge bank whose clock
	// root is a primary source (not produced by any gate or flip-flop —
	// a derived/divided clock must not become the step reference).
	ffQ := make(map[netlist.NetID]bool, len(el.ffBanks))
	for i := range el.ffBanks {
		for _, q := range el.ffBanks[i].q {
			ffQ[q] = true
		}
	}
	isPrimary := func(id netlist.NetID) bool { return drv[id] < 0 && !ffQ[id] }

	var globalRoot netlist.NetID = netlist.InvalidNet
	for i := range el.ffBanks {
		b := &el.ffBanks[i]
		if !b.negedge && isPrimary(root(b.clkNet)) {
			globalRoot = root(b.clkNet)
			el.clockName = b.clkName
			break
		}
	}
	if globalRoot == netlist.InvalidNet {
		for i := range el.ffBanks {
			b := &el.ffBanks[i]
			if !b.negedge {
				globalRoot = root(b.clkNet)
				el.clockName = b.clkName
				break
			}
		}
	}
	if globalRoot == netlist.InvalidNet {
		// Only negedge blocks: adopt the first clock anyway; its banks
		// still get falling-edge detectors (the step is the posedge).
		globalRoot = root(el.ffBanks[0].clkNet)
		el.clockName = el.ffBanks[0].clkName
	}

	// One shared edge detector per (root, edge) pair.
	type domainKey struct {
		root netlist.NetID
		neg  bool
	}
	enables := make(map[domainKey]netlist.NetID)
	enableFor := func(clkNet netlist.NetID, neg bool) netlist.NetID {
		r := root(clkNet)
		key := domainKey{root: r, neg: neg}
		if en, ok := enables[key]; ok {
			return en
		}
		prev := el.nl.NewNet()
		el.nl.SetName(prev, el.nl.NameOf(r)+"$prev")
		el.nl.AddFF(r, prev, false)
		var en netlist.NetID
		if neg {
			notClk := el.nl.AddGate(netlist.Not, r)
			en = el.nl.AddGate(netlist.And, notClk, prev)
		} else {
			notPrev := el.nl.AddGate(netlist.Not, prev)
			en = el.nl.AddGate(netlist.And, r, notPrev)
		}
		enables[key] = en
		return en
	}

	for i := range el.ffBanks {
		b := &el.ffBanks[i]
		direct := !b.negedge && root(b.clkNet) == globalRoot
		var en netlist.NetID
		if !direct {
			en = enableFor(b.clkNet, b.negedge)
		}
		for k := range b.d {
			din := b.d[k]
			if !direct {
				din = el.nl.AddGate(netlist.Mux, en, b.q[k], b.d[k])
			}
			init := false
			if iv := b.sig[k].initVals; iv != nil {
				init = iv[b.bit[k]]
			}
			el.nl.AddFF(din, b.q[k], init)
		}
	}
	el.ffBanks = nil
	return nil
}

// signal is an elaborated net/reg: a fixed vector of netlist nets plus
// its declared geometry. Memory arrays (`reg [7:0] m [0:15]`) store all
// elements flattened into bits, element 0 first.
type signal struct {
	name   string // hierarchical debug name
	bits   []netlist.NetID
	msb    int
	lsb    int
	signed bool
	isReg  bool
	// elems > 0 marks a memory array of that many elements; alo is the
	// lowest array index.
	elems int
	alo   int
	// clocked marks regs driven by a clocked always block (their bits
	// are flip-flop Q nets).
	clocked bool
	// driven marks signals that have received a driver, for diagnostics.
	driven bool
	// initVals holds power-on values from `initial` blocks (nil when the
	// signal has no initialiser; flip-flops then power up at zero).
	initVals []bool
}

func (s *signal) width() int { return len(s.bits) }

// elemWidth returns the per-element width (the full width for plain
// signals).
func (s *signal) elemWidth() int {
	if s.elems > 0 {
		return len(s.bits) / s.elems
	}
	return len(s.bits)
}

// offsetOf maps a source index to an offset into bits (LSB-first
// storage). Descending ranges [7:0] map index i to i-lsb; ascending
// ranges [0:7] map index i to msb-i counted from the right.
func (s *signal) offsetOf(idx int) (int, bool) {
	var off int
	if s.msb >= s.lsb {
		off = idx - s.lsb
	} else {
		off = s.lsb - idx
	}
	if off < 0 || off >= len(s.bits) {
		return 0, false
	}
	return off, true
}

// scope is a name-resolution scope: one per module instance, plus one
// child per generate iteration.
type scope struct {
	el     *elaborator
	parent *scope // nil for a module root
	mod    *moduleCtx

	params  map[string]int64
	signals map[string]*signal
}

// moduleCtx is state shared by all scopes of one module instance.
type moduleCtx struct {
	module *verilog.Module
	prefix string // hierarchical prefix, "" for top, "u0." below
	funcs  map[string]*verilog.FunctionDecl
	depth  int
}

func newScope(el *elaborator, parent *scope, mod *moduleCtx) *scope {
	return &scope{
		el:      el,
		parent:  parent,
		mod:     mod,
		params:  make(map[string]int64),
		signals: make(map[string]*signal),
	}
}

func (sc *scope) lookupConst(name string) (int64, bool) {
	for s := sc; s != nil; s = s.parent {
		if v, ok := s.params[name]; ok {
			return v, true
		}
	}
	return 0, false
}

func (sc *scope) lookupSignal(name string) (*signal, bool) {
	for s := sc; s != nil; s = s.parent {
		if sig, ok := s.signals[name]; ok {
			return sig, true
		}
	}
	return nil, false
}

func (sc *scope) lookupFunc(name string) (*verilog.FunctionDecl, bool) {
	f, ok := sc.mod.funcs[name]
	return f, ok
}

// deferredItem is a behavioural item remembered during the declaration
// pass together with the scope it must elaborate in.
type deferredItem struct {
	sc   *scope
	item verilog.Item
}

// elaborateModule creates the scope for one instance of module m,
// declares everything, then drives everything. portParams supplies
// instance parameter overrides.
func (el *elaborator) elaborateModule(m *verilog.Module, portParams map[string]int64, prefix string, depth int) (*scope, error) {
	if depth > el.opts.MaxDepth {
		return nil, fmt.Errorf("synth: hierarchy deeper than %d at %q (recursive instantiation?)", el.opts.MaxDepth, m.Name)
	}
	mc := &moduleCtx{module: m, prefix: prefix, funcs: make(map[string]*verilog.FunctionDecl), depth: depth}
	sc := newScope(el, nil, mc)

	// Header parameters first (defaults, then overrides).
	for _, pd := range m.Params {
		v, err := sc.constEval(pd.Value)
		if err != nil {
			return nil, err
		}
		sc.params[pd.Name] = v
	}
	for name, v := range portParams {
		if _, ok := sc.params[name]; !ok {
			return nil, fmt.Errorf("synth: module %q has no parameter %q", m.Name, name)
		}
		sc.params[name] = v
	}

	// ANSI port declarations.
	for _, pr := range m.Ports {
		if pr.Decl != nil {
			if err := sc.declareNet(pr.Decl); err != nil {
				return nil, err
			}
		}
	}

	var deferred []deferredItem
	if err := sc.declareItems(m.Items, &deferred); err != nil {
		return nil, err
	}

	// Check that every header port has a declaration by now.
	for _, pr := range m.Ports {
		if _, ok := sc.lookupSignal(pr.Name); !ok {
			return nil, fmt.Errorf("%s: port %q of module %q has no declaration", pr.Pos, pr.Name, m.Name)
		}
	}

	for _, d := range deferred {
		if err := d.sc.driveItem(d.item); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// declareItems runs the declaration pass over items, recursing into
// generate constructs, and collects behavioural items in order.
func (sc *scope) declareItems(items []verilog.Item, deferred *[]deferredItem) error {
	for _, it := range items {
		switch x := it.(type) {
		case *verilog.ParamDecl:
			v, err := sc.constEval(x.Value)
			if err != nil {
				return err
			}
			sc.params[x.Name] = v
		case *verilog.NetDecl:
			if err := sc.declareNet(x); err != nil {
				return err
			}
			// Declaration initialisers behave like continuous assigns.
			for _, dn := range x.Names {
				if dn.Init != nil {
					*deferred = append(*deferred, deferredItem{sc, &verilog.ContAssign{
						Pos: dn.Pos,
						LHS: &verilog.Ident{Pos: dn.Pos, Name: dn.Name},
						RHS: dn.Init,
					}})
				}
			}
		case *verilog.FunctionDecl:
			sc.mod.funcs[x.Name] = x
		case *verilog.GenvarDecl:
			// Genvars materialise as loop constants; nothing to declare.
		case *verilog.GenerateFor:
			if err := sc.expandGenerateFor(x, deferred); err != nil {
				return err
			}
		case *verilog.GenerateIf:
			cond, err := sc.constEval(x.Cond)
			if err != nil {
				return err
			}
			arm := x.Then
			if cond == 0 {
				arm = x.Else
			}
			child := newScope(sc.el, sc, sc.mod)
			if err := child.declareItems(arm, deferred); err != nil {
				return err
			}
		case *verilog.InitialBlock:
			// Synthesis semantics: constant assignments set flip-flop
			// power-on values (the FPGA-style register initialiser).
			*deferred = append(*deferred, deferredItem{sc, it})
		default:
			*deferred = append(*deferred, deferredItem{sc, it})
		}
	}
	return nil
}

func (sc *scope) expandGenerateFor(g *verilog.GenerateFor, deferred *[]deferredItem) error {
	if g.Var != g.StepVar {
		return fmt.Errorf("%s: generate-for step must update loop variable %q", g.Pos, g.Var)
	}
	v, err := sc.constEval(g.Init)
	if err != nil {
		return err
	}
	const maxIter = 1 << 20
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return fmt.Errorf("%s: generate-for exceeds %d iterations", g.Pos, maxIter)
		}
		iterScope := newScope(sc.el, sc, sc.mod)
		iterScope.params[g.Var] = v
		cond, err := iterScope.constEval(g.Cond)
		if err != nil {
			return err
		}
		if cond == 0 {
			return nil
		}
		if err := iterScope.declareItems(g.Body, deferred); err != nil {
			return err
		}
		next, err := iterScope.constEval(g.Step)
		if err != nil {
			return err
		}
		if next == v {
			return fmt.Errorf("%s: generate-for does not progress", g.Pos)
		}
		v = next
	}
}

// declareNet creates signal entries for a declaration.
func (sc *scope) declareNet(d *verilog.NetDecl) error {
	msb, lsb := 0, 0
	if d.MSB != nil {
		var err error
		m64, err := sc.constEval(d.MSB)
		if err != nil {
			return err
		}
		l64, err := sc.constEval(d.LSB)
		if err != nil {
			return err
		}
		msb, lsb = int(m64), int(l64)
	}
	width := msb - lsb + 1
	if width < 0 {
		width = lsb - msb + 1
	}
	if width <= 0 || width > 1<<20 {
		return fmt.Errorf("%s: unreasonable vector width %d", d.Pos, width)
	}
	for _, dn := range d.Names {
		elems, alo := 0, 0
		if dn.AMSB != nil {
			am, err := sc.constEval(dn.AMSB)
			if err != nil {
				return err
			}
			al, err := sc.constEval(dn.ALSB)
			if err != nil {
				return err
			}
			lo, hi := al, am
			if lo > hi {
				lo, hi = hi, lo
			}
			elems = int(hi-lo) + 1
			alo = int(lo)
			if elems <= 0 || elems > 1<<16 {
				return fmt.Errorf("%s: unreasonable memory depth %d", dn.Pos, elems)
			}
			if !d.IsReg {
				return fmt.Errorf("%s: memory %q must be declared reg", dn.Pos, dn.Name)
			}
		}
		total := width
		if elems > 0 {
			total = width * elems
		}
		if existing, ok := sc.signals[dn.Name]; ok {
			// Non-ANSI style declares the same name twice (`output y;`
			// then `reg y;`): merge flags instead of re-declaring.
			if existing.width() == total && elems == existing.elems {
				existing.isReg = existing.isReg || d.IsReg
				existing.signed = existing.signed || d.Signed
				continue
			}
			return fmt.Errorf("%s: %q redeclared with different shape", dn.Pos, dn.Name)
		}
		hname := sc.mod.prefix + dn.Name
		sig := &signal{
			name:   hname,
			bits:   sc.el.nl.NewNets(total),
			msb:    msb,
			lsb:    lsb,
			signed: d.Signed,
			isReg:  d.IsReg,
			elems:  elems,
			alo:    alo,
		}
		for i, b := range sig.bits {
			switch {
			case elems > 0:
				sc.el.nl.SetName(b, fmt.Sprintf("%s[%d][%d]", hname, alo+i/width, i%width))
			case total == 1:
				sc.el.nl.SetName(b, hname)
			default:
				sc.el.nl.SetName(b, fmt.Sprintf("%s[%d]", hname, i))
			}
		}
		sc.signals[dn.Name] = sig
	}
	return nil
}

// driveItem elaborates one behavioural item.
func (sc *scope) driveItem(it verilog.Item) error {
	switch x := it.(type) {
	case *verilog.ContAssign:
		return sc.driveContAssign(x)
	case *verilog.AlwaysBlock:
		return sc.driveAlways(x)
	case *verilog.Instance:
		return sc.driveInstance(x)
	case *verilog.InitialBlock:
		return sc.applyInitial(x)
	default:
		return fmt.Errorf("synth: unexpected behavioural item %T", it)
	}
}

// applyInitial records register power-on values. Only straight-line
// constant assignments are meaningful to synthesis; anything else in an
// initial block is a simulation-only construct and is rejected so that
// silent misinterpretation cannot happen.
func (sc *scope) applyInitial(blk *verilog.InitialBlock) error {
	var walk func(stmt verilog.Stmt) error
	walk = func(stmt verilog.Stmt) error {
		switch s := stmt.(type) {
		case *verilog.NullStmt:
			return nil
		case *verilog.Block:
			for _, sub := range s.Stmts {
				if err := walk(sub); err != nil {
					return err
				}
			}
			return nil
		case *verilog.Assign:
			id, ok := s.LHS.(*verilog.Ident)
			if !ok {
				return fmt.Errorf("%s: initial blocks support only whole-register assignments", s.Pos)
			}
			sig, ok := sc.lookupSignal(id.Name)
			if !ok {
				return fmt.Errorf("%s: unknown signal %q", s.Pos, id.Name)
			}
			if !sig.isReg {
				return fmt.Errorf("%s: initial assignment to non-reg %q", s.Pos, id.Name)
			}
			v, err := sc.constEval(s.RHS)
			if err != nil {
				return fmt.Errorf("%s: initial value must be constant: %v", s.Pos, err)
			}
			sig.initVals = make([]bool, sig.width())
			for i := range sig.initVals {
				if i < 64 {
					sig.initVals[i] = uint64(v)>>uint(i)&1 == 1
				}
			}
			return nil
		}
		return fmt.Errorf("synth: unsupported statement in initial block")
	}
	return walk(blk.Body)
}

// driveContAssign evaluates RHS at the LHS width and connects it.
func (sc *scope) driveContAssign(a *verilog.ContAssign) error {
	lv, err := sc.resolveLValue(a.LHS)
	if err != nil {
		return err
	}
	rhs, err := sc.evalSized(a.RHS, len(lv.nets))
	if err != nil {
		return err
	}
	for i, dst := range lv.nets {
		sc.el.nl.AddGateOut(netlist.Buf, dst, rhs[i])
	}
	lv.markDriven()
	return nil
}

// lvalue is a resolved assignment target: the concrete nets to drive.
type lvalue struct {
	nets []netlist.NetID
	sigs []*signal // signals touched, for bookkeeping
}

func (lv *lvalue) markDriven() {
	for _, s := range lv.sigs {
		s.driven = true
	}
}

// resolveLValue maps an LHS expression to concrete nets (LSB-first).
// Dynamic (non-constant) indices are not allowed in continuous
// assignment targets; procedural code handles them via read-modify-write
// in the statement executor.
func (sc *scope) resolveLValue(e verilog.Expr) (*lvalue, error) {
	switch x := e.(type) {
	case *verilog.Ident:
		sig, ok := sc.lookupSignal(x.Name)
		if !ok {
			return nil, fmt.Errorf("%s: unknown signal %q", x.Pos, x.Name)
		}
		return &lvalue{nets: sig.bits, sigs: []*signal{sig}}, nil
	case *verilog.Index:
		sig, ok := identTarget(sc, x.X)
		if !ok {
			return nil, fmt.Errorf("%s: unsupported lvalue", x.Pos)
		}
		idx, err := sc.constEval(x.I)
		if err != nil {
			return nil, fmt.Errorf("%s: lvalue bit select must be constant: %v", x.Pos, err)
		}
		off, ok := sig.offsetOf(int(idx))
		if !ok {
			return nil, fmt.Errorf("%s: bit select [%d] out of range of %s", x.Pos, idx, sig.name)
		}
		return &lvalue{nets: sig.bits[off : off+1], sigs: []*signal{sig}}, nil
	case *verilog.RangeSelect:
		sig, ok := identTarget(sc, x.X)
		if !ok {
			return nil, fmt.Errorf("%s: unsupported lvalue", x.Pos)
		}
		lo, hi, err := sc.resolveRange(sig, x)
		if err != nil {
			return nil, err
		}
		return &lvalue{nets: sig.bits[lo : hi+1], sigs: []*signal{sig}}, nil
	case *verilog.Concat:
		// Concatenation target: MSB-first in source order.
		var out lvalue
		for i := len(x.Parts) - 1; i >= 0; i-- {
			part, err := sc.resolveLValue(x.Parts[i])
			if err != nil {
				return nil, err
			}
			out.nets = append(out.nets, part.nets...)
			out.sigs = append(out.sigs, part.sigs...)
		}
		return &out, nil
	}
	return nil, fmt.Errorf("%s: unsupported lvalue expression", verilog.ExprPos(e))
}

func identTarget(sc *scope, e verilog.Expr) (*signal, bool) {
	id, ok := e.(*verilog.Ident)
	if !ok {
		return nil, false
	}
	return sc.lookupSignal(id.Name)
}

// resolveRange computes the inclusive LSB-first offsets [lo, hi] of a
// part select over sig. All range forms require constant bounds in
// lvalues and constant or dynamic handling in rvalues (the dynamic case
// is handled by evalSized, not here).
func (sc *scope) resolveRange(sig *signal, x *verilog.RangeSelect) (lo, hi int, err error) {
	switch x.Mode {
	case RangeConstMode:
		m64, err := sc.constEval(x.MSB)
		if err != nil {
			return 0, 0, err
		}
		l64, err := sc.constEval(x.LSB)
		if err != nil {
			return 0, 0, err
		}
		offM, okM := sig.offsetOf(int(m64))
		offL, okL := sig.offsetOf(int(l64))
		if !okM || !okL {
			return 0, 0, fmt.Errorf("%s: part select [%d:%d] out of range of %s", x.Pos, m64, l64, sig.name)
		}
		lo, hi = offL, offM
		if lo > hi {
			lo, hi = hi, lo
		}
		return lo, hi, nil
	case RangeUpMode, RangeDownMode:
		base, err := sc.constEval(x.MSB)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: indexed part select base must be constant here: %v", x.Pos, err)
		}
		w64, err := sc.constEval(x.LSB)
		if err != nil {
			return 0, 0, err
		}
		w := int(w64)
		if w <= 0 {
			return 0, 0, fmt.Errorf("%s: part select width must be positive", x.Pos)
		}
		first := int(base)
		last := first + w - 1
		if x.Mode == RangeDownMode {
			last = first
			first = first - w + 1
		}
		offLo, okLo := sig.offsetOf(first)
		offHi, okHi := sig.offsetOf(last)
		if !okLo || !okHi {
			return 0, 0, fmt.Errorf("%s: indexed part select out of range of %s", x.Pos, sig.name)
		}
		if offLo > offHi {
			offLo, offHi = offHi, offLo
		}
		return offLo, offHi, nil
	}
	return 0, 0, fmt.Errorf("%s: unsupported part select", x.Pos)
}

// Aliases to keep the switch above readable.
const (
	RangeConstMode = verilog.RangeConst
	RangeUpMode    = verilog.RangeUp
	RangeDownMode  = verilog.RangeDown
)

// bindTopPorts registers the top module's ports as netlist I/O.
func (el *elaborator) bindTopPorts(m *verilog.Module, sc *scope) error {
	for _, pr := range m.Ports {
		sig, ok := sc.lookupSignal(pr.Name)
		if !ok {
			return fmt.Errorf("%s: port %q has no declaration", pr.Pos, pr.Name)
		}
		dir := portDirection(m, pr)
		switch dir {
		case verilog.DirInput:
			// Input port bits must not have drivers; they become primary
			// inputs. The signal's nets are already allocated, so register
			// them directly.
			el.nl.Inputs = append(el.nl.Inputs, netlist.Port{Name: pr.Name, Bits: sig.bits})
		case verilog.DirOutput:
			el.nl.AddOutput(pr.Name, sig.bits)
		default:
			return fmt.Errorf("%s: inout ports are not supported (port %q)", pr.Pos, pr.Name)
		}
	}
	return nil
}

// portDirection finds the direction of a header port, consulting body
// declarations for non-ANSI style.
func portDirection(m *verilog.Module, pr *verilog.PortRef) verilog.Direction {
	if pr.Decl != nil {
		return pr.Decl.Dir
	}
	var find func(items []verilog.Item) verilog.Direction
	find = func(items []verilog.Item) verilog.Direction {
		for _, it := range items {
			switch d := it.(type) {
			case *verilog.NetDecl:
				for _, dn := range d.Names {
					if dn.Name == pr.Name && d.Dir != verilog.DirNone {
						return d.Dir
					}
				}
			case *verilog.GenerateFor:
				if dir := find(d.Body); dir != verilog.DirNone {
					return dir
				}
			case *verilog.GenerateIf:
				if dir := find(d.Then); dir != verilog.DirNone {
					return dir
				}
				if dir := find(d.Else); dir != verilog.DirNone {
					return dir
				}
			}
		}
		return verilog.DirNone
	}
	return find(m.Items)
}

// driveInstance flattens one child instance into the netlist.
func (sc *scope) driveInstance(inst *verilog.Instance) error {
	child, ok := sc.el.design.Modules[inst.ModuleName]
	if !ok {
		return fmt.Errorf("%s: unknown module %q", inst.Pos, inst.ModuleName)
	}

	// Parameter overrides.
	overrides := make(map[string]int64)
	for i, c := range inst.Params {
		v, err := sc.constEval(c.Expr)
		if err != nil {
			return err
		}
		if c.Named {
			overrides[c.Name] = v
		} else {
			if i >= len(child.Params) {
				return fmt.Errorf("%s: too many positional parameters for %q", inst.Pos, inst.ModuleName)
			}
			overrides[child.Params[i].Name] = v
		}
	}

	childScope, err := sc.el.elaborateModule(child, overrides, sc.mod.prefix+inst.Name+".", sc.mod.depth+1)
	if err != nil {
		return err
	}

	// Port bindings.
	bound := make(map[string]bool)
	for i, c := range inst.Ports {
		var pr *verilog.PortRef
		if c.Named {
			for _, cand := range child.Ports {
				if cand.Name == c.Name {
					pr = cand
					break
				}
			}
			if pr == nil {
				return fmt.Errorf("%s: module %q has no port %q", c.Pos, child.Name, c.Name)
			}
		} else {
			if i >= len(child.Ports) {
				return fmt.Errorf("%s: too many positional connections for %q", c.Pos, child.Name)
			}
			pr = child.Ports[i]
		}
		if bound[pr.Name] {
			return fmt.Errorf("%s: port %q bound twice", c.Pos, pr.Name)
		}
		bound[pr.Name] = true

		sig, _ := childScope.lookupSignal(pr.Name)
		dir := portDirection(child, pr)
		switch dir {
		case verilog.DirInput:
			if c.Expr == nil {
				// Unconnected input: tie low.
				for _, b := range sig.bits {
					sc.el.nl.AddGateOut(netlist.Buf, b, netlist.ConstZero)
				}
				continue
			}
			rhs, err := sc.evalSized(c.Expr, sig.width())
			if err != nil {
				return err
			}
			for i, b := range sig.bits {
				sc.el.nl.AddGateOut(netlist.Buf, b, rhs[i])
			}
			sig.driven = true
		case verilog.DirOutput:
			if c.Expr == nil {
				continue // unconnected output: dangling is fine
			}
			lv, err := sc.resolveLValue(c.Expr)
			if err != nil {
				return err
			}
			for i, dst := range lv.nets {
				src := netlist.ConstZero
				if i < sig.width() {
					src = sig.bits[i]
				}
				sc.el.nl.AddGateOut(netlist.Buf, dst, src)
			}
			lv.markDriven()
		default:
			return fmt.Errorf("%s: inout ports are not supported (%s.%s)", c.Pos, child.Name, pr.Name)
		}
	}

	// Unbound input ports default to zero.
	for _, pr := range child.Ports {
		if bound[pr.Name] {
			continue
		}
		if portDirection(child, pr) == verilog.DirInput {
			sig, _ := childScope.lookupSignal(pr.Name)
			for _, b := range sig.bits {
				sc.el.nl.AddGateOut(netlist.Buf, b, netlist.ConstZero)
			}
		}
	}
	return nil
}
