// Package gatesim provides the baseline RTL simulators the neural
// network engine is measured against (the Verilator stand-in of the
// paper's evaluation, §IV).
//
// Three engines share one compiled gate program:
//
//   - Scalar: levelized compiled-order interpretation, one stimulus per
//     pass — the classic cycle-based simulator and the Table I baseline.
//   - Batch64: the same order evaluated bitwise over 64 stimuli packed
//     into machine words.
//   - EventDriven: activity-based evaluation that skips gates whose
//     inputs did not change (the ESSENT-style low-activity optimisation
//     cited in the paper's introduction).
//
// Cycle semantics follow the flip-flop cut: evaluate the combinational
// core, then latch every flip-flop.
package gatesim

import (
	"fmt"

	"c2nn/internal/netlist"
)

// instr is one compiled gate operation over state indices.
type instr struct {
	kind    netlist.GateKind
	out     int32
	a, b, c int32
}

// Program is a levelized, compiled form of a netlist shared by all
// engine variants.
type Program struct {
	nl     *netlist.Netlist
	instrs []instr
	// levelEnd[l] is the end index (exclusive) in instrs of level l+1.
	levelEnd []int32
	ffD, ffQ []int32
	ffInit   []bool
	numNets  int
}

// Compile levelizes and flattens the netlist into a gate program.
func Compile(nl *netlist.Netlist) (*Program, error) {
	lev, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	p := &Program{
		nl:      nl,
		instrs:  make([]instr, 0, len(nl.Gates)),
		numNets: nl.NumNets(),
	}
	for l := int32(1); l <= lev.Depth; l++ {
		for _, gi := range lev.GatesAtLevel(l) {
			g := &nl.Gates[gi]
			in := g.Inputs()
			ins := [3]int32{}
			for i, id := range in {
				ins[i] = int32(id)
			}
			p.instrs = append(p.instrs, instr{
				kind: g.Kind, out: int32(g.Out), a: ins[0], b: ins[1], c: ins[2],
			})
		}
		p.levelEnd = append(p.levelEnd, int32(len(p.instrs)))
	}
	for _, ff := range nl.FFs {
		p.ffD = append(p.ffD, int32(ff.D))
		p.ffQ = append(p.ffQ, int32(ff.Q))
		p.ffInit = append(p.ffInit, ff.Init)
	}
	return p, nil
}

// Netlist returns the compiled netlist.
func (p *Program) Netlist() *netlist.Netlist { return p.nl }

// Depth returns the number of combinational levels.
func (p *Program) Depth() int { return len(p.levelEnd) }

// NumGates returns the number of compiled gate instructions.
func (p *Program) NumGates() int { return len(p.instrs) }

// Sim is a single-stimulus simulator over a Program. The zero value is
// not usable; construct with NewSim.
type Sim struct {
	p    *Program
	vals []bool
	q    []bool
}

// NewSim creates a scalar simulator with flip-flops at their initial
// values.
func NewSim(p *Program) *Sim {
	s := &Sim{p: p, vals: make([]bool, p.numNets), q: make([]bool, len(p.ffQ))}
	s.Reset()
	return s
}

// Netlist returns the netlist the simulator was compiled from.
func (s *Sim) Netlist() *netlist.Netlist { return s.p.nl }

// Reset returns all flip-flops to their initial values.
func (s *Sim) Reset() {
	for i, init := range s.p.ffInit {
		s.q[i] = init
	}
}

// Poke sets an input port from the low bits of v (LSB-first).
func (s *Sim) Poke(name string, v uint64) error {
	port := s.p.nl.FindInput(name)
	if port == nil {
		return fmt.Errorf("gatesim: no input port %q", name)
	}
	for i, b := range port.Bits {
		s.vals[b] = i < 64 && v>>uint(i)&1 == 1
	}
	return nil
}

// PokeBits sets an input port from a bit slice.
func (s *Sim) PokeBits(name string, bits []bool) error {
	port := s.p.nl.FindInput(name)
	if port == nil {
		return fmt.Errorf("gatesim: no input port %q", name)
	}
	for i, b := range port.Bits {
		s.vals[b] = i < len(bits) && bits[i]
	}
	return nil
}

// Eval propagates the combinational core for the current inputs and
// flip-flop state.
func (s *Sim) Eval() {
	s.vals[netlist.ConstZero] = false
	s.vals[netlist.ConstOne] = true
	for i, q := range s.p.ffQ {
		s.vals[q] = s.q[i]
	}
	for i := range s.p.instrs {
		in := &s.p.instrs[i]
		var v bool
		switch in.kind {
		case netlist.Buf:
			v = s.vals[in.a]
		case netlist.Not:
			v = !s.vals[in.a]
		case netlist.And:
			v = s.vals[in.a] && s.vals[in.b]
		case netlist.Or:
			v = s.vals[in.a] || s.vals[in.b]
		case netlist.Xor:
			v = s.vals[in.a] != s.vals[in.b]
		case netlist.Nand:
			v = !(s.vals[in.a] && s.vals[in.b])
		case netlist.Nor:
			v = !(s.vals[in.a] || s.vals[in.b])
		case netlist.Xnor:
			v = s.vals[in.a] == s.vals[in.b]
		case netlist.Mux:
			if s.vals[in.a] {
				v = s.vals[in.c]
			} else {
				v = s.vals[in.b]
			}
		}
		s.vals[in.out] = v
	}
}

// Step runs one full clock cycle: Eval then latch.
func (s *Sim) Step() {
	s.Eval()
	for i, d := range s.p.ffD {
		s.q[i] = s.vals[d]
	}
}

// NumFFs returns the number of flip-flops in the compiled program.
func (s *Sim) NumFFs() int { return len(s.q) }

// PokeFF overrides the current state of flip-flop i (netlist FF order),
// as if the previous cycle had latched v. Used by testbench `setff`
// directives to start a replay from an arbitrary state.
func (s *Sim) PokeFF(i int, v bool) error {
	if i < 0 || i >= len(s.q) {
		return fmt.Errorf("gatesim: flip-flop %d out of range (have %d)", i, len(s.q))
	}
	s.q[i] = v
	return nil
}

// PeekFF reads the current state of flip-flop i (netlist FF order).
func (s *Sim) PeekFF(i int) (bool, error) {
	if i < 0 || i >= len(s.q) {
		return false, fmt.Errorf("gatesim: flip-flop %d out of range (have %d)", i, len(s.q))
	}
	return s.q[i], nil
}

// Peek reads an output port as an integer (LSB-first, at most 64 bits).
func (s *Sim) Peek(name string) (uint64, error) {
	port := s.p.nl.FindOutput(name)
	if port == nil {
		return 0, fmt.Errorf("gatesim: no output port %q", name)
	}
	var v uint64
	for i, b := range port.Bits {
		if i < 64 && s.vals[b] {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// PeekBits reads an output port as a bit slice.
func (s *Sim) PeekBits(name string) ([]bool, error) {
	port := s.p.nl.FindOutput(name)
	if port == nil {
		return nil, fmt.Errorf("gatesim: no output port %q", name)
	}
	out := make([]bool, len(port.Bits))
	for i, b := range port.Bits {
		out[i] = s.vals[b]
	}
	return out, nil
}
