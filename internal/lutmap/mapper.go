package lutmap

import (
	"fmt"
	"sort"

	"c2nn/internal/aig"
	"c2nn/internal/netlist"
	"c2nn/internal/obs"
	"c2nn/internal/truthtab"
)

// Algorithm selects the mapping algorithm.
type Algorithm int

// Mapping algorithms.
const (
	// PriorityCuts is the default: bounded cut enumeration ranked by
	// depth then area flow (the practical mapper inside ABC).
	PriorityCuts Algorithm = iota
	// FlowMap computes depth-optimal labels with max-flow min-cut
	// (Cong & Ding 1994); slower, used for the mapper ablation.
	FlowMap
)

// Options configures mapping.
type Options struct {
	// K is the maximum LUT input count (the paper's L hyperparameter).
	K int
	// CutsPerNode bounds the per-node cut set in PriorityCuts mode
	// (default 8).
	CutsPerNode int
	// Algorithm selects the mapper.
	Algorithm Algorithm
	// Trace, when non-nil, records per-stage spans of the mapping
	// pipeline: "aig" (netlist → AIG), "cuts" (cut enumeration /
	// labelling), "tables" (truth tables + graph build) and
	// "normalize" (canonicalisation).
	Trace *obs.Trace
}

func (o *Options) fill() error {
	if o.K < 2 {
		return fmt.Errorf("lutmap: K must be at least 2, got %d", o.K)
	}
	if o.K > truthtab.MaxVars {
		return fmt.Errorf("lutmap: K=%d exceeds maximum %d", o.K, truthtab.MaxVars)
	}
	if o.CutsPerNode == 0 {
		o.CutsPerNode = 8
	}
	return nil
}

// cut is a K-feasible cut: a set of nodes separating a root from the
// primary inputs.
type cut struct {
	leaves []int32 // sorted ascending
	depth  int32   // 1 + max leaf arrival
	area   float64 // area-flow estimate
	sig    uint64  // quick subsumption signature
}

func cutSig(leaves []int32) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint(l) % 64)
	}
	return s
}

// mergeLeaves unions two sorted leaf sets, bounded by k; returns nil if
// the union exceeds k.
func mergeLeaves(a, b []int32, k int) []int32 {
	out := make([]int32, 0, k)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int32
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case a[i] > b[j]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if len(out) == k {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// Map covers the AIG with K-LUTs. outputs lists the literals that must
// be realised (in order); the resulting Graph has one output entry per
// literal.
func Map(g *aig.AIG, outputs []aig.Lit, opts Options) (*Graph, error) {
	if err := (&opts).fill(); err != nil {
		return nil, err
	}
	csp := opts.Trace.Begin("cuts")
	var bestCut [][]int32
	var err error
	switch opts.Algorithm {
	case PriorityCuts:
		bestCut = priorityCutMap(g, opts)
	case FlowMap:
		bestCut, err = flowMap(g, opts)
		if err != nil {
			csp.End()
			return nil, err
		}
	default:
		csp.End()
		return nil, fmt.Errorf("lutmap: unknown algorithm %d", opts.Algorithm)
	}
	csp.SetInt("nodes", int64(g.NumNodes())).End()
	tsp := opts.Trace.Begin("tables")
	gr, err := buildGraph(g, outputs, bestCut, opts)
	if err != nil {
		tsp.End()
		return nil, err
	}
	tsp.SetInt("luts", int64(len(gr.LUTs))).SetInt("depth", int64(gr.Depth())).End()
	return gr, nil
}

// priorityCutMap computes, for every AND node, the chosen (depth-best)
// cut. Returned slice is indexed by node; nil for PIs/const.
func priorityCutMap(g *aig.AIG, opts Options) [][]int32 {
	n := g.NumNodes()
	k := opts.K
	maxCuts := opts.CutsPerNode

	// Fanout counts drive the area-flow estimate.
	fanout := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		if !g.IsAnd(v) {
			continue
		}
		a, b := g.Fanins(v)
		fanout[a.Node()]++
		fanout[b.Node()]++
	}

	arrival := make([]int32, n)
	areaFlow := make([]float64, n)
	cuts := make([][]cut, n)
	best := make([][]int32, n)

	for v := int32(0); v < int32(n); v++ {
		if !g.IsAnd(v) {
			// Constant or PI: only the trivial cut.
			cuts[v] = []cut{{leaves: []int32{v}, depth: 0, area: 0, sig: cutSig([]int32{v})}}
			continue
		}
		a, b := g.Fanins(v)
		var cand []cut
		for _, ca := range cuts[a.Node()] {
			for _, cb := range cuts[b.Node()] {
				leaves := mergeLeaves(ca.leaves, cb.leaves, k)
				if leaves == nil {
					continue
				}
				var depth int32
				var area float64 = 1
				for _, l := range leaves {
					if arrival[l] > depth {
						depth = arrival[l]
					}
					f := float64(fanout[l])
					if f < 1 {
						f = 1
					}
					area += areaFlow[l] / f
				}
				cand = append(cand, cut{leaves: leaves, depth: depth + 1, area: area, sig: cutSig(leaves)})
			}
		}
		// Rank by depth then area flow; dedup and drop dominated cuts.
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].depth != cand[j].depth {
				return cand[i].depth < cand[j].depth
			}
			if cand[i].area != cand[j].area {
				return cand[i].area < cand[j].area
			}
			return len(cand[i].leaves) < len(cand[j].leaves)
		})
		var kept []cut
		for _, c := range cand {
			if len(kept) >= maxCuts {
				break
			}
			dominated := false
			for _, prev := range kept {
				if prev.sig&^c.sig == 0 && leavesSubset(prev.leaves, c.leaves) {
					dominated = true
					break
				}
			}
			if !dominated {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			// Fall back to the immediate-fanin cut, always feasible for
			// K >= 2.
			leaves := mergeLeaves([]int32{a.Node()}, []int32{b.Node()}, k)
			d := arrival[a.Node()]
			if arrival[b.Node()] > d {
				d = arrival[b.Node()]
			}
			kept = []cut{{leaves: leaves, depth: d + 1, area: 1, sig: cutSig(leaves)}}
		}
		bc := kept[0]
		arrival[v] = bc.depth
		areaFlow[v] = bc.area
		best[v] = bc.leaves
		// Keep the trivial cut for upstream merging.
		kept = append(kept, cut{leaves: []int32{v}, depth: bc.depth, area: bc.area, sig: cutSig([]int32{v})})
		cuts[v] = kept
	}
	return best
}

// leavesSubset reports whether a ⊆ b (both sorted).
func leavesSubset(a, b []int32) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// buildGraph extracts the cover: starting from the output nodes, each
// chosen root realises one LUT over its best cut, and cut leaves become
// roots in turn.
func buildGraph(g *aig.AIG, outputs []aig.Lit, bestCut [][]int32, opts Options) (*Graph, error) {
	chosen := make(map[int32]bool)
	var stack []int32
	push := func(n int32) {
		if g.IsAnd(n) && !chosen[n] {
			chosen[n] = true
			stack = append(stack, n)
		}
	}
	for _, o := range outputs {
		push(o.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if bestCut[n] == nil {
			return nil, fmt.Errorf("lutmap: no cut for node %d", n)
		}
		for _, leaf := range bestCut[n] {
			push(leaf)
		}
	}

	roots := make([]int32, 0, len(chosen))
	for n := range chosen {
		roots = append(roots, n)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	gr := &Graph{K: opts.K, NumPIs: g.NumPIs()}
	lutIndex := make(map[int32]int, len(roots))

	refOf := func(n int32) (NodeRef, error) {
		if g.IsPI(n) {
			return PIRef(int(n - 1)), nil
		}
		idx, ok := lutIndex[n]
		if !ok {
			return 0, fmt.Errorf("lutmap: leaf node %d not realised", n)
		}
		return NodeRef(idx), nil
	}

	for _, root := range roots {
		leaves := bestCut[root]
		ins := make([]NodeRef, len(leaves))
		for i, leaf := range leaves {
			r, err := refOf(leaf)
			if err != nil {
				return nil, err
			}
			ins[i] = r
		}
		table, err := coneTable(g, root, leaves)
		if err != nil {
			return nil, err
		}
		lutIndex[root] = len(gr.LUTs)
		gr.LUTs = append(gr.LUTs, LUT{Ins: ins, Table: table})
	}

	// Outputs: fold inversions into duplicated complement LUTs so that
	// every graph node is a plain binary signal (no edge attributes).
	negIndex := make(map[int32]int)
	notPI := make(map[int]int)
	for _, o := range outputs {
		n := o.Node()
		switch {
		case g.IsConst(n):
			val := o.Neg() // ~false = true
			gr.LUTs = append(gr.LUTs, LUT{Ins: nil, Table: truthtab.Const(0, val)})
			gr.Outputs = append(gr.Outputs, NodeRef(len(gr.LUTs)-1))
		case g.IsPI(n):
			if !o.Neg() {
				gr.Outputs = append(gr.Outputs, PIRef(int(n-1)))
				continue
			}
			pi := int(n - 1)
			idx, ok := notPI[pi]
			if !ok {
				idx = len(gr.LUTs)
				notPI[pi] = idx
				gr.LUTs = append(gr.LUTs, LUT{
					Ins:   []NodeRef{PIRef(pi)},
					Table: truthtab.Var(1, 0).Not(),
				})
			}
			gr.Outputs = append(gr.Outputs, NodeRef(idx))
		default:
			idx := lutIndex[n]
			if !o.Neg() {
				gr.Outputs = append(gr.Outputs, NodeRef(idx))
				continue
			}
			nidx, ok := negIndex[n]
			if !ok {
				pos := gr.LUTs[idx]
				nidx = len(gr.LUTs)
				negIndex[n] = nidx
				gr.LUTs = append(gr.LUTs, LUT{Ins: pos.Ins, Table: pos.Table.Not()})
			}
			gr.Outputs = append(gr.Outputs, NodeRef(nidx))
		}
	}
	// Canonicalise: prune unused cut leaves, share duplicate LUTs,
	// sweep dead cones (lint rules LM005/LM006/LM007).
	nsp := opts.Trace.Begin("normalize")
	gr = Normalize(gr)
	nsp.End()
	if err := gr.Validate(); err != nil {
		return nil, err
	}
	return gr, nil
}

// coneTable computes the truth table of root as a function of the cut
// leaves by evaluating the AIG cone symbolically over packed tables
// (this replaces the SAT-based table extraction mentioned in the paper;
// exhaustive evaluation is exact for K <= 24).
func coneTable(g *aig.AIG, root int32, leaves []int32) (truthtab.Table, error) {
	k := len(leaves)
	leafIdx := make(map[int32]int, k)
	for i, l := range leaves {
		leafIdx[l] = i
	}
	memo := make(map[int32]truthtab.Table)
	var rec func(n int32) (truthtab.Table, error)
	rec = func(n int32) (truthtab.Table, error) {
		if idx, ok := leafIdx[n]; ok {
			return truthtab.Var(k, idx), nil
		}
		if t, ok := memo[n]; ok {
			return t, nil
		}
		if g.IsConst(n) {
			return truthtab.Const(k, false), nil
		}
		if g.IsPI(n) {
			return truthtab.Table{}, fmt.Errorf("lutmap: cone of node %d escapes its cut at PI %d", root, n-1)
		}
		a, b := g.Fanins(n)
		ta, err := rec(a.Node())
		if err != nil {
			return truthtab.Table{}, err
		}
		if a.Neg() {
			ta = ta.Not()
		}
		tb, err := rec(b.Node())
		if err != nil {
			return truthtab.Table{}, err
		}
		if b.Neg() {
			tb = tb.Not()
		}
		t := ta.And(tb)
		memo[n] = t
		return t, nil
	}
	return rec(root)
}

// Lower exposes the combinational core of a netlist by the flip-flop
// cut and lowers it to an AIG, recording the "aig" span. outs holds the
// literal of every combinational output, in nl.CombOutputs() order.
func Lower(nl *netlist.Netlist, tr *obs.Trace) (*aig.AIG, []aig.Lit, error) {
	asp := tr.Begin("aig")
	defer asp.End()
	g, lits, err := aig.FromNetlist(nl)
	if err != nil {
		return nil, nil, err
	}
	asp.SetInt("nodes", int64(g.NumNodes()))
	outNets := nl.CombOutputs()
	outs := make([]aig.Lit, len(outNets))
	for i, net := range outNets {
		lit, ok := lits[net]
		if !ok {
			return nil, nil, fmt.Errorf("lutmap: no literal for combinational output %s", nl.NameOf(net))
		}
		outs[i] = lit
	}
	return g, outs, nil
}

// MapLowered covers an AIG produced by Lower with K-LUTs. The result
// ties graph PIs/outputs back to netlist nets.
func MapLowered(nl *netlist.Netlist, g *aig.AIG, outs []aig.Lit, opts Options) (*Mapping, error) {
	graph, err := Map(g, outs, opts)
	if err != nil {
		return nil, err
	}
	var piNets []netlist.NetID
	for _, id := range nl.CombInputs() {
		if id != netlist.ConstZero && id != netlist.ConstOne {
			piNets = append(piNets, id)
		}
	}
	return &Mapping{Graph: graph, PINets: piNets, OutputNets: nl.CombOutputs()}, nil
}

// MapNetlist runs the full front half of the pipeline on a netlist:
// Lower, then MapLowered, under one "lutmap" span.
func MapNetlist(nl *netlist.Netlist, opts Options) (*Mapping, error) {
	msp := opts.Trace.Begin("lutmap")
	defer msp.End()
	g, outs, err := Lower(nl, opts.Trace)
	if err != nil {
		return nil, err
	}
	return MapLowered(nl, g, outs, opts)
}
