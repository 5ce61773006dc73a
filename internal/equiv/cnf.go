// Package equiv is the formal equivalence checker: it statically
// proves that every compile stage of the pipeline preserves circuit
// function, turning the paper's "computationally equivalent" claim
// into a certificate instead of a sampled observation.
//
// Three independent Tseitin encoders lower the bit-blasted netlist,
// the and-inverter graph and the mapped LUT graph into CNF over a
// shared set of primary-input variables (the combinational inputs of
// the flip-flop cut: primary input bits then flip-flop Q pins). A
// simulation-guided SAT sweep (the ABC `cec` lineage) proves internal
// node equivalences bottom-up so the final per-output miters are
// local; any satisfiable miter yields a model that is replayed as a
// testbench counterexample. The LUT→polynomial→threshold-block chain
// is proven exhaustively per LUT (≤ 2^L rows) in lutchain.go. See
// docs/EQUIV.md.
package equiv

import (
	"fmt"

	"c2nn/internal/aig"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/sat"
	"c2nn/internal/truthtab"
)

// cnf wraps a SAT solver with structurally-hashing Tseitin gate
// constructors: operands are constant-folded and canonically ordered,
// and each distinct (op, operands) triple allocates exactly one output
// variable — so structurally identical logic, including logic repeated
// across the two sides of a miter, shares variables and needs no SAT
// call to be proven equal. Every encoded circuit also shares the single
// constTrue literal.
//
// The builder also records, per output variable, the operand literals
// of its defining gate (defs/defN). The transitive closure of that
// relation is the exact structural cone of a literal — a fanin-closed
// variable set in the sense Solver.SetDecisionVars requires, so the
// sweep can restrict each pair proof to the two cones instead of the
// whole circuit.
type cnf struct {
	s         *sat.Solver
	constTrue sat.Lit
	gates     int // Tseitin gates emitted (CNF size metric beside clauses)
	ands      map[[2]sat.Lit]sat.Lit
	xors      map[[2]sat.Lit]sat.Lit
	muxes     map[[3]sat.Lit]sat.Lit
	defs      [][3]sat.Lit // operand literals of the gate defining each var
	defN      []uint8      // operand count; 0 for PIs and constants
}

func newCNF() *cnf {
	c := &cnf{
		s:     sat.New(),
		ands:  make(map[[2]sat.Lit]sat.Lit),
		xors:  make(map[[2]sat.Lit]sat.Lit),
		muxes: make(map[[3]sat.Lit]sat.Lit),
	}
	c.constTrue = c.newLit()
	c.s.AddClause(c.constTrue)
	return c
}

func (c *cnf) newLit() sat.Lit {
	l := sat.MkLit(c.s.NewVar(), false)
	c.defs = append(c.defs, [3]sat.Lit{})
	c.defN = append(c.defN, 0)
	return l
}

func (c *cnf) setDef(out sat.Lit, ops ...sat.Lit) {
	v := out.Var()
	c.defN[v] = uint8(len(ops))
	copy(c.defs[v][:], ops)
}

func (c *cnf) constant(v bool) sat.Lit { return c.constTrue.FlipIf(!v) }

// andGate returns a literal constrained to a AND b.
func (c *cnf) andGate(a, b sat.Lit) sat.Lit {
	switch {
	case a == c.constant(false) || b == c.constant(false) || a == b.Flip():
		return c.constant(false)
	case a == c.constant(true) || a == b:
		return b
	case b == c.constant(true):
		return a
	}
	if b < a {
		a, b = b, a
	}
	if out, ok := c.ands[[2]sat.Lit{a, b}]; ok {
		return out
	}
	out := c.newLit()
	c.gates++
	c.setDef(out, a, b)
	c.s.AddClause(out.Flip(), a)
	c.s.AddClause(out.Flip(), b)
	c.s.AddClause(out, a.Flip(), b.Flip())
	c.ands[[2]sat.Lit{a, b}] = out
	return out
}

// orGate returns a literal constrained to a OR b.
func (c *cnf) orGate(a, b sat.Lit) sat.Lit {
	return c.andGate(a.Flip(), b.Flip()).Flip()
}

// xorGate returns a literal constrained to a XOR b. The cache key uses
// positive operands; polarity rides on the returned literal, so xor(a,b)
// and xor(¬a,b) share one variable.
func (c *cnf) xorGate(a, b sat.Lit) sat.Lit {
	switch {
	case a == c.constant(false):
		return b
	case a == c.constant(true):
		return b.Flip()
	case b == c.constant(false):
		return a
	case b == c.constant(true):
		return a.Flip()
	case a == b:
		return c.constant(false)
	case a == b.Flip():
		return c.constant(true)
	}
	neg := a.Neg() != b.Neg()
	pa, pb := sat.MkLit(int(a.Var()), false), sat.MkLit(int(b.Var()), false)
	if pb < pa {
		pa, pb = pb, pa
	}
	if out, ok := c.xors[[2]sat.Lit{pa, pb}]; ok {
		return out.FlipIf(neg)
	}
	out := c.newLit()
	c.gates++
	c.setDef(out, pa, pb)
	c.s.AddClause(out.Flip(), pa, pb)
	c.s.AddClause(out.Flip(), pa.Flip(), pb.Flip())
	c.s.AddClause(out, pa.Flip(), pb)
	c.s.AddClause(out, pa, pb.Flip())
	c.xors[[2]sat.Lit{pa, pb}] = out
	return out.FlipIf(neg)
}

// muxGate returns a literal constrained to (sel ? d1 : d0).
func (c *cnf) muxGate(sel, d0, d1 sat.Lit) sat.Lit {
	switch {
	case sel == c.constant(false):
		return d0
	case sel == c.constant(true):
		return d1
	case d0 == d1:
		return d0
	case d0 == d1.Flip():
		return c.xorGate(sel, d0)
	case d0 == c.constant(false):
		return c.andGate(sel, d1)
	case d1 == c.constant(false):
		return c.andGate(sel.Flip(), d0)
	case d0 == c.constant(true):
		return c.orGate(sel.Flip(), d1)
	case d1 == c.constant(true):
		return c.orGate(sel, d0)
	}
	if sel.Neg() {
		sel = sel.Flip()
		d0, d1 = d1, d0
	}
	if out, ok := c.muxes[[3]sat.Lit{sel, d0, d1}]; ok {
		return out
	}
	out := c.newLit()
	c.gates++
	c.setDef(out, sel, d0, d1)
	c.s.AddClause(out.Flip(), sel.Flip(), d1)
	c.s.AddClause(out.Flip(), sel, d0)
	c.s.AddClause(out, sel.Flip(), d1.Flip())
	c.s.AddClause(out, sel, d0.Flip())
	c.muxes[[3]sat.Lit{sel, d0, d1}] = out
	return out
}

// encodeNetlist lowers the combinational core of a netlist into CNF.
// piLits holds one literal per combinational input in CombInputs order
// with the two constants removed. It returns one literal per gate
// (netlist gate order) plus the net→literal map for output lookup.
func encodeNetlist(c *cnf, nl *netlist.Netlist, piLits []sat.Lit) ([]sat.Lit, map[netlist.NetID]sat.Lit, error) {
	lev, err := nl.Levelize()
	if err != nil {
		return nil, nil, err
	}
	lits := make(map[netlist.NetID]sat.Lit, nl.NumNets())
	lits[netlist.ConstZero] = c.constant(false)
	lits[netlist.ConstOne] = c.constant(true)
	i := 0
	for _, id := range nl.CombInputs() {
		if id == netlist.ConstZero || id == netlist.ConstOne {
			continue
		}
		lits[id] = piLits[i]
		i++
	}
	if i != len(piLits) {
		return nil, nil, fmt.Errorf("equiv: %d PI literals for %d combinational inputs", len(piLits), i)
	}

	gateLits := make([]sat.Lit, len(nl.Gates))
	for _, gi := range lev.Order {
		g := &nl.Gates[gi]
		in := g.Inputs()
		fan := make([]sat.Lit, len(in))
		for k, id := range in {
			l, ok := lits[id]
			if !ok {
				return nil, nil, fmt.Errorf("equiv: gate %d reads undriven net %s", gi, nl.NameOf(id))
			}
			fan[k] = l
		}
		var out sat.Lit
		switch g.Kind {
		case netlist.Buf:
			out = fan[0]
		case netlist.Not:
			out = fan[0].Flip()
		case netlist.And:
			out = c.andGate(fan[0], fan[1])
		case netlist.Or:
			out = c.orGate(fan[0], fan[1])
		case netlist.Xor:
			out = c.xorGate(fan[0], fan[1])
		case netlist.Nand:
			out = c.andGate(fan[0], fan[1]).Flip()
		case netlist.Nor:
			out = c.orGate(fan[0], fan[1]).Flip()
		case netlist.Xnor:
			out = c.xorGate(fan[0], fan[1]).Flip()
		case netlist.Mux:
			out = c.muxGate(fan[0], fan[1], fan[2])
		default:
			return nil, nil, fmt.Errorf("equiv: unsupported gate kind %s", g.Kind)
		}
		lits[g.Out] = out
		gateLits[gi] = out
	}
	return gateLits, lits, nil
}

// encodeAIG lowers an and-inverter graph into CNF, returning one
// literal per node (constant and PIs included, in node order).
func encodeAIG(c *cnf, g *aig.AIG, piLits []sat.Lit) ([]sat.Lit, error) {
	if len(piLits) != g.NumPIs() {
		return nil, fmt.Errorf("equiv: %d PI literals for an AIG with %d PIs", len(piLits), g.NumPIs())
	}
	nodeLits := make([]sat.Lit, g.NumNodes())
	nodeLits[0] = c.constant(false)
	copy(nodeLits[1:], piLits)
	litOf := func(l aig.Lit) sat.Lit { return nodeLits[l.Node()].FlipIf(l.Neg()) }
	for n := int32(g.NumPIs()) + 1; n < int32(g.NumNodes()); n++ {
		a, b := g.Fanins(n)
		nodeLits[n] = c.andGate(litOf(a), litOf(b))
	}
	return nodeLits, nil
}

// encodeLUTGraph lowers the LUT computation graph into CNF, returning
// one literal per LUT. Each truth table is decomposed by a memoized
// Shannon expansion (a reduced, ordered mux tree), so the encoding
// never enumerates 2^K rows explicitly and shared cofactors cost one
// ITE node.
func encodeLUTGraph(c *cnf, g *lutmap.Graph, piLits []sat.Lit) ([]sat.Lit, error) {
	if len(piLits) != g.NumPIs {
		return nil, fmt.Errorf("equiv: %d PI literals for a LUT graph with %d PIs", len(piLits), g.NumPIs)
	}
	lutLits := make([]sat.Lit, len(g.LUTs))
	ref := func(r lutmap.NodeRef) (sat.Lit, error) {
		if r.IsPI() {
			if r.PI() >= len(piLits) {
				return 0, fmt.Errorf("equiv: LUT input references PI %d of %d", r.PI(), len(piLits))
			}
			return piLits[r.PI()], nil
		}
		return lutLits[r.LUT()], nil
	}
	for i := range g.LUTs {
		l := &g.LUTs[i]
		ins := make([]sat.Lit, len(l.Ins))
		for k, r := range l.Ins {
			lit, err := ref(r)
			if err != nil {
				return nil, err
			}
			ins[k] = lit
		}
		lutLits[i] = encodeTable(c, l.Table, ins, make(map[string]sat.Lit))
	}
	return lutLits, nil
}

// tableKey serialises a truth table for cofactor memoization within
// one LUT encoding. The variable count is part of the key because
// Cofactor shrinks tables, so equal bit content at different arities
// describes different functions of the remaining inputs.
func tableKey(t truthtab.Table) string {
	buf := make([]byte, 0, 1+8*len(t.Words))
	buf = append(buf, byte(t.NumVars))
	for _, w := range t.Words {
		for k := 0; k < 8; k++ {
			buf = append(buf, byte(w>>uint(8*k)))
		}
	}
	return string(buf)
}

// encodeTable builds the mux tree of a truth table over the given input
// literals (len(ins) == t.NumVars): a Shannon expansion on the top
// variable, memoized so equal cofactors share one node — a reduced,
// ordered decision-diagram encoding rather than a 2^K-row expansion.
func encodeTable(c *cnf, t truthtab.Table, ins []sat.Lit, memo map[string]sat.Lit) sat.Lit {
	if len(ins) != t.NumVars {
		panic(fmt.Sprintf("equiv: %d input literals for a %d-variable table", len(ins), t.NumVars))
	}
	if isConst, v := t.IsConst(); isConst {
		return c.constant(v)
	}
	key := tableKey(t)
	if l, ok := memo[key]; ok {
		return l
	}
	v := t.NumVars - 1 // Cofactor removes the split variable
	l0 := encodeTable(c, t.Cofactor(v, false), ins[:v], memo)
	l1 := encodeTable(c, t.Cofactor(v, true), ins[:v], memo)
	var out sat.Lit
	switch {
	case l0 == l1:
		out = l0
	case l0 == l1.Flip():
		out = c.xorGate(ins[v], l0)
	case l0 == c.constant(false):
		out = c.andGate(ins[v], l1)
	case l1 == c.constant(false):
		out = c.andGate(ins[v].Flip(), l0)
	case l0 == c.constant(true):
		out = c.orGate(ins[v].Flip(), l1)
	case l1 == c.constant(true):
		out = c.orGate(ins[v], l0)
	default:
		out = c.muxGate(ins[v], l0, l1)
	}
	memo[key] = out
	return out
}
