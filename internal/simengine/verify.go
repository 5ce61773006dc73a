package simengine

import (
	"fmt"

	"c2nn/internal/gatesim"
	"c2nn/internal/nn"
)

// VerifyResult summarises an equivalence run.
type VerifyResult struct {
	Cycles   int
	Batch    int
	Ports    int
	Compared int64 // port-value comparisons performed
}

// Verify performs the §IV-A correctness check: it drives an NN engine
// built with opts — so the backend, worker count and batch under test
// are the caller's — and one gate-level reference simulator per lane
// with identical random stimuli for the given number of cycles, and
// compares every bit of every output port in every lane on every cycle.
// The first mismatch is returned as an error.
func Verify(model *nn.Model, prog *gatesim.Program, cycles int, opts Options, seed int64) (VerifyResult, error) {
	eng, err := New(model, opts)
	if err != nil {
		return VerifyResult{Cycles: cycles}, err
	}
	defer eng.Close()
	res := VerifyResult{Cycles: cycles, Batch: eng.Batch(), Ports: len(model.Outputs)}
	refs := make([]*gatesim.Sim, res.Batch)
	for b := range refs {
		refs[b] = gatesim.NewSim(prog)
	}
	stim := NewStimulus(model, res.Batch, seed)
	var c Cycle

	for cyc := 0; cyc < cycles; cyc++ {
		c = stim.Next(c)
		if err := stim.Load(eng, c); err != nil {
			return res, err
		}
		eng.Forward()
		for b, ref := range refs {
			if err := stim.Poke(ref, c, b); err != nil {
				return res, err
			}
			ref.Eval()
		}
		for _, out := range model.Outputs {
			name := out.Name
			got, err := eng.GetOutput(name)
			if err != nil {
				return res, err
			}
			stride := len(got) / res.Batch
			for b, ref := range refs {
				want, err := ref.PeekBits(name)
				if err != nil {
					return res, err
				}
				res.Compared++
				for i, w := range want {
					if g := got[b*stride+i/64]>>uint(i%64)&1 == 1; g != w {
						return res, fmt.Errorf(
							"simengine: cycle %d lane %d port %s bit %d: NN=%v, gate-level=%v",
							cyc, b, name, i, g, w)
					}
				}
			}
		}
		eng.LatchFeedback()
		for _, ref := range refs {
			ref.Step()
		}
	}
	return res, nil
}
