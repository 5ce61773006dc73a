package nn

import (
	"fmt"
	"math/bits"

	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/obs"
	"c2nn/internal/poly"
	"c2nn/internal/tensor"
)

// BuildOptions configures network construction.
type BuildOptions struct {
	// Merge returns Merge(model): the Fig. 5 fusion is a pass over the
	// network built here, not a second builder.
	Merge bool
	// L records the LUT size used during mapping (Table I column).
	L int
	// BuildTrace, when non-nil, records the "nn" span with its "poly"
	// (polynomial generation), "network" (layer construction) and, when
	// merging, "merge" child spans. Named BuildTrace because Trace
	// already names the LUT provenance this package attaches to models.
	BuildTrace *obs.Trace
}

// Build converts a mapped circuit into its neural-network model, the
// explicit Fig. 2 alternation of term layers and exact linear layers,
// merged per Fig. 5 when opts.Merge asks for it.
// The netlist supplies port names, flip-flop wiring and the gate count
// used by the throughput metric.
func Build(nl *netlist.Netlist, m *lutmap.Mapping, opts BuildOptions) (*Model, error) {
	bsp := opts.BuildTrace.Begin("nn")
	defer bsp.End()
	g := m.Graph
	psp := opts.BuildTrace.Begin("poly")
	polys := make([]poly.Poly, len(g.LUTs))
	for i := range g.LUTs {
		polys[i] = poly.FromTable(g.LUTs[i].Table)
	}
	if opts.BuildTrace != nil {
		var terms int64
		for i := range polys {
			terms += int64(len(polys[i].Terms))
		}
		psp.SetInt("luts", int64(len(polys))).SetInt("terms", terms)
	}
	psp.End()
	nsp := opts.BuildTrace.Begin("network")
	levels := g.Level()
	var depth int32
	for _, l := range levels {
		if l > depth {
			depth = l
		}
	}
	byLevel := make([][]int, depth+1)
	for u, l := range levels {
		byLevel[l] = append(byLevel[l], u)
	}

	net, tr, err := buildNetwork(g, polys, byLevel)
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}

	model := &Model{
		Net:         net,
		CircuitName: nl.Name,
		L:           opts.L,
		GateCount:   int64(nl.GateCount()),
		Trace:       tr,
	}
	if err := bindPorts(model, nl, m); err != nil {
		return nil, err
	}
	before := net.ComputeStats()
	nsp.SetInt("layers", int64(len(net.Layers))).
		SetInt("neurons", int64(net.TotalUnits)).
		SetInt("nnz", int64(before.Connections)).End()
	if !opts.Merge {
		return model, nil
	}
	msp := opts.BuildTrace.Begin("merge")
	if model, err = Merge(model); err != nil {
		return nil, err
	}
	after := model.Net.ComputeStats()
	msp.SetInt("rows_before", int64(before.Neurons)).SetInt("rows", int64(after.Neurons)).
		SetInt("nnz_before", int64(before.Connections)).SetInt("nnz", int64(after.Connections)).End()
	return model, nil
}

// buildNetwork constructs the explicit Fig. 2 alternation: a threshold
// hidden layer (terms, unit weights, bias |S|−1) followed by an exact
// linear layer materialising each LUT's signal, per level, plus the
// output layer.
func buildNetwork(g *lutmap.Graph, polys []poly.Poly, byLevel [][]int) (*Network, *Trace, error) {
	net := &Network{NumPIs: g.NumPIs}
	units := int32(1 + g.NumPIs)
	signalUnit := make([]int32, len(g.LUTs))
	tr := &Trace{LayerOfLevel: make([]int32, len(byLevel)), LUTs: make([]LUTTrace, len(g.LUTs))}
	for l := range tr.LayerOfLevel {
		tr.LayerOfLevel[l] = -1 // until a layer is built for the level
	}

	refUnit := func(r lutmap.NodeRef) int32 {
		if r.IsPI() {
			return PIUnit(r.PI())
		}
		return signalUnit[r.LUT()]
	}

	for level := 1; level < len(byLevel); level++ {
		luts := byLevel[level]
		if len(luts) == 0 {
			continue
		}
		// Hidden threshold layer: term neurons.
		hidStart := units
		var hidEntries []tensor.Triple
		var biases []float32
		hidRow := int32(0)
		for _, u := range luts {
			p := polys[u]
			ins := g.LUTs[u].Ins
			terms := p.NonConstTerms()
			lt := &tr.LUTs[u]
			lt.Level = int32(level)
			lt.TermUnits, lt.TermMasks = make([]int32, len(terms)), make([]uint32, len(terms))
			for ti, term := range terms {
				size := int32(bits.OnesCount32(term.Mask))
				for v := 0; v < p.NumVars; v++ {
					if term.Mask>>uint(v)&1 == 1 {
						hidEntries = append(hidEntries, tensor.Triple{
							Row: hidRow, Col: refUnit(ins[v]), Val: 1})
					}
				}
				biases = append(biases, float32(size-1))
				lt.TermUnits[ti], lt.TermMasks[ti] = hidStart+hidRow, term.Mask
				hidRow++
			}
		}
		hw, err := tensor.FromTriples(int(hidRow), int(hidStart), hidEntries)
		if err != nil {
			return nil, nil, err
		}
		net.Layers = append(net.Layers, Layer{W: hw, Bias: biases, Threshold: true})
		net.SegStart = append(net.SegStart, hidStart)
		tr.LayerOfLevel[level] = int32(len(net.Layers) - 1)
		units += hidRow

		// Exact linear layer: one neuron per LUT signal.
		linStart := units
		var linEntries []tensor.Triple
		for li, u := range luts {
			p := polys[u]
			row := int32(li)
			if c := p.ConstTerm(); c != 0 {
				linEntries = append(linEntries, tensor.Triple{Row: row, Col: ConstUnit, Val: float32(c)})
			}
			for ti, term := range p.NonConstTerms() {
				linEntries = append(linEntries, tensor.Triple{
					Row: row, Col: tr.LUTs[u].TermUnits[ti], Val: float32(term.Coeff)})
			}
			signalUnit[u] = linStart + row
			tr.LUTs[u].VUnits, tr.LUTs[u].VCoefs = []int32{signalUnit[u]}, []int32{1}
		}
		lw, err := tensor.FromTriples(len(luts), int(linStart), linEntries)
		if err != nil {
			return nil, nil, err
		}
		net.Layers = append(net.Layers, Layer{W: lw, Threshold: false})
		net.SegStart = append(net.SegStart, linStart)
		units += int32(len(luts))
	}

	// Output layer: identity rows onto the output signals.
	segStart := units
	var entries []tensor.Triple
	for j, ref := range g.Outputs {
		entries = append(entries, tensor.Triple{Row: int32(j), Col: refUnit(ref), Val: 1})
	}
	w, err := tensor.FromTriples(len(g.Outputs), int(segStart), entries)
	if err != nil {
		return nil, nil, err
	}
	net.Layers = append(net.Layers, Layer{W: w, Threshold: false})
	net.SegStart = append(net.SegStart, segStart)
	units += int32(len(g.Outputs))
	net.TotalUnits = int(units)
	return net, tr, nil
}

// bindPorts fills the model's port maps and flip-flop feedback from the
// netlist geometry: mapping PIs are primary inputs then FF Q pins;
// mapping outputs are primary outputs then FF D pins.
func bindPorts(model *Model, nl *netlist.Netlist, m *lutmap.Mapping) error {
	piIndex := make(map[netlist.NetID]int, len(m.PINets))
	for i, net := range m.PINets {
		piIndex[net] = i
	}
	for _, port := range nl.Inputs {
		pm := PortMap{Name: port.Name, Units: make([]int32, len(port.Bits))}
		for i, bit := range port.Bits {
			pi, ok := piIndex[bit]
			if !ok {
				return fmt.Errorf("nn: input %s bit %d is not a mapping PI", port.Name, i)
			}
			pm.Units[i] = PIUnit(pi)
		}
		model.Inputs = append(model.Inputs, pm)
	}

	// Output unit of combinational output j: row j of the final layer.
	lastSeg := model.Net.SegStart[len(model.Net.SegStart)-1]
	outUnit := func(j int) int32 { return lastSeg + int32(j) }

	outIndex := make(map[netlist.NetID]int, len(m.OutputNets))
	for j, net := range m.OutputNets {
		if _, dup := outIndex[net]; !dup {
			outIndex[net] = j
		}
	}
	for _, port := range nl.Outputs {
		pm := PortMap{Name: port.Name, Units: make([]int32, len(port.Bits))}
		for i, bit := range port.Bits {
			j, ok := outIndex[bit]
			if !ok {
				return fmt.Errorf("nn: output %s bit %d is not a mapping output", port.Name, i)
			}
			pm.Units[i] = outUnit(j)
		}
		model.Outputs = append(model.Outputs, pm)
	}

	// Flip-flop feedback: D outputs follow the primary output bits in
	// CombOutputs order; Q inputs follow the primary input bits.
	numPrimaryOut := nl.OutputBits()
	numPrimaryIn := nl.InputBits()
	for i, ff := range nl.FFs {
		j := numPrimaryOut + i
		pi := numPrimaryIn + i
		if m.OutputNets[j] != ff.D || m.PINets[pi] != ff.Q {
			return fmt.Errorf("nn: flip-flop %d wiring mismatch", i)
		}
		model.Feedback = append(model.Feedback, Feedback{
			FromUnit: outUnit(j),
			ToPI:     PIUnit(pi),
			Init:     ff.Init,
		})
	}
	return nil
}
