package gatesim

import (
	"fmt"

	"c2nn/internal/netlist"
)

func errNoPort(name string) error { return fmt.Errorf("gatesim: no port %q", name) }

// EventSim is an activity-driven cycle simulator: a gate is re-evaluated
// only when one of its inputs changed since the previous cycle. Circuits
// with low activity factors (most real designs, as ESSENT observes)
// evaluate a small fraction of their gates per cycle.
type EventSim struct {
	p    *Program
	vals []bool
	q    []bool

	// fanout[net] lists instruction indices reading that net.
	fanout [][]int32
	// level[i] is the 0-based level of instruction i.
	level []int32
	// dirty[i] marks instructions scheduled for re-evaluation.
	dirty []bool
	// queue is bucketed by level to preserve evaluation order.
	queue [][]int32
	// primed is false until the first full evaluation.
	primed bool

	// EvalCount accumulates the number of gate evaluations performed,
	// for activity-factor reporting in the benchmarks.
	EvalCount uint64
}

// NewEventSim creates an event-driven simulator.
func NewEventSim(p *Program) *EventSim {
	s := &EventSim{
		p:      p,
		vals:   make([]bool, p.numNets),
		q:      make([]bool, len(p.ffQ)),
		fanout: make([][]int32, p.numNets),
		level:  make([]int32, len(p.instrs)),
		dirty:  make([]bool, len(p.instrs)),
		queue:  make([][]int32, len(p.levelEnd)),
	}
	var start int32
	for l, end := range p.levelEnd {
		for i := start; i < end; i++ {
			s.level[i] = int32(l)
		}
		start = end
	}
	for i := range p.instrs {
		in := &p.instrs[i]
		nets := []int32{in.a}
		if in.kind.Arity() >= 2 {
			nets = append(nets, in.b)
		}
		if in.kind.Arity() == 3 {
			nets = append(nets, in.c)
		}
		seen := map[int32]bool{}
		for _, n := range nets {
			if !seen[n] {
				seen[n] = true
				s.fanout[n] = append(s.fanout[n], int32(i))
			}
		}
	}
	s.Reset()
	return s
}

// Reset restores initial flip-flop state and forces a full evaluation on
// the next cycle.
func (s *EventSim) Reset() {
	for i, init := range s.p.ffInit {
		s.q[i] = init
	}
	s.primed = false
}

// Poke sets an input port, scheduling the fanout of changed bits.
func (s *EventSim) Poke(name string, v uint64) error {
	port := s.p.nl.FindInput(name)
	if port == nil {
		return errNoPort(name)
	}
	for i, b := range port.Bits {
		nv := i < 64 && v>>uint(i)&1 == 1
		if s.vals[b] != nv {
			s.vals[b] = nv
			s.markFanout(int32(b))
		}
	}
	return nil
}

// PokeBits sets an input port from a bit slice at any width — the
// wide-port counterpart of Poke. Missing bits read as zero.
func (s *EventSim) PokeBits(name string, bits []bool) error {
	port := s.p.nl.FindInput(name)
	if port == nil {
		return errNoPort(name)
	}
	for i, b := range port.Bits {
		nv := i < len(bits) && bits[i]
		if s.vals[b] != nv {
			s.vals[b] = nv
			s.markFanout(int32(b))
		}
	}
	return nil
}

func (s *EventSim) markFanout(net int32) {
	for _, gi := range s.fanout[net] {
		if !s.dirty[gi] {
			s.dirty[gi] = true
			l := s.level[gi]
			s.queue[l] = append(s.queue[l], gi)
		}
	}
}

func (s *EventSim) evalInstr(i int32) bool {
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
	s.EvalCount++
	changed := s.vals[in.out] != v
	s.vals[in.out] = v
	return changed
}

// Eval propagates pending activity through the combinational core.
func (s *EventSim) Eval() {
	s.vals[netlist.ConstZero] = false
	s.vals[netlist.ConstOne] = true
	for i, qn := range s.p.ffQ {
		if s.vals[qn] != s.q[i] {
			s.vals[qn] = s.q[i]
			s.markFanout(qn)
		}
	}
	if !s.primed {
		// First cycle: evaluate everything once to establish values.
		for i := range s.p.instrs {
			s.evalInstr(int32(i))
		}
		for l := range s.queue {
			for _, gi := range s.queue[l] {
				s.dirty[gi] = false
			}
			s.queue[l] = s.queue[l][:0]
		}
		s.primed = true
		return
	}
	for l := 0; l < len(s.queue); l++ {
		// Fanout of a level-l gate is strictly deeper than l, so the
		// bucket cannot grow while it is being drained.
		for _, gi := range s.queue[l] {
			s.dirty[gi] = false
			if s.evalInstr(gi) {
				s.markFanout(s.p.instrs[gi].out)
			}
		}
		s.queue[l] = s.queue[l][:0]
	}
}

// Step runs one clock cycle.
func (s *EventSim) Step() {
	s.Eval()
	for i, d := range s.p.ffD {
		s.q[i] = s.vals[d]
	}
}

// Peek reads an output port as an integer.
func (s *EventSim) Peek(name string) (uint64, error) {
	port := s.p.nl.FindOutput(name)
	if port == nil {
		return 0, errNoPort(name)
	}
	var v uint64
	for i, b := range port.Bits {
		if i < 64 && s.vals[b] {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// ActivityFactor returns mean evaluated-gates-per-cycle divided by total
// gates, given the number of cycles simulated so far.
func (s *EventSim) ActivityFactor(cycles int) float64 {
	if cycles == 0 || len(s.p.instrs) == 0 {
		return 0
	}
	return float64(s.EvalCount) / float64(cycles) / float64(len(s.p.instrs))
}
