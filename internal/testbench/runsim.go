package testbench

import (
	"fmt"

	"c2nn/internal/gatesim"
)

// RunSim executes the script against a gate-level reference simulator —
// the single-stimulus twin of RunOpts. Per-lane value spreads are not
// meaningful on a scalar simulator, so set/expect use their first value
// only; all other directives behave exactly as on the engine. It exists
// so equivalence-checker counterexamples can be replayed against both
// the netlist (must pass) and the network (must diverge).
func (s *Script) RunSim(sim *gatesim.Sim) (Result, error) {
	var res Result
	settled := false
	for _, d := range s.Directives {
		switch d.Op {
		case OpSet, OpSetBits:
			words := d.Values
			if d.Op == OpSet {
				words = words[:1]
			}
			bits := make([]bool, 64*len(words))
			for i := range bits {
				bits[i] = words[i/64]>>uint(i%64)&1 == 1
			}
			if err := sim.PokeBits(d.Port, bits); err != nil {
				return res, fmt.Errorf("line %d: %v", d.Line, err)
			}
			settled = false
			res.Applied++
		case OpSetFF:
			if err := sim.PokeFF(d.Index, d.FFVal); err != nil {
				return res, fmt.Errorf("line %d: %v", d.Line, err)
			}
			settled = false
			res.Applied++
		case OpStep:
			for i := 0; i < d.Count; i++ {
				sim.Step()
				res.Steps++
			}
			settled = false
		case OpEval:
			sim.Eval()
			settled = true
		case OpReset:
			sim.Reset()
			settled = false
		case OpExpect, OpExpectAll, OpExpectBits:
			if !settled {
				sim.Eval()
				settled = true
			}
			bits, err := sim.PeekBits(d.Port)
			if err != nil {
				return res, fmt.Errorf("line %d: %v", d.Line, err)
			}
			res.Checks++
			words := d.Values
			if d.Op != OpExpectBits {
				words = words[:1]
			}
			for i, bit := range bits {
				wantBit := i/64 < len(words) && words[i/64]>>uint(i%64)&1 == 1
				if bit != wantBit {
					return res, fmt.Errorf("line %d: %s bit %d = %d, want %d",
						d.Line, d.Port, i, b2u(bit), b2u(wantBit))
				}
			}
			for i := len(bits); i < 64*len(words); i++ {
				if words[i/64]>>uint(i%64)&1 == 1 && d.Op == OpExpectBits {
					return res, fmt.Errorf("line %d: %s expectation sets bit %d but the port is %d bits wide",
						d.Line, d.Port, i, len(bits))
				}
			}
		case OpExpectFF:
			if !settled {
				sim.Eval()
				settled = true
			}
			got, err := sim.PeekFF(d.Index)
			if err != nil {
				return res, fmt.Errorf("line %d: %v", d.Line, err)
			}
			res.Checks++
			if got != d.FFVal {
				return res, fmt.Errorf("line %d: ff[%d] = %d, want %d",
					d.Line, d.Index, b2u(got), b2u(d.FFVal))
			}
		}
	}
	return res, nil
}
