package backend

import (
	"math/rand"
	"testing"

	"c2nn/internal/exec/plan"
	"c2nn/internal/nn"
	"c2nn/internal/tensor"
)

// term is one weighted input of a hand-built row.
type term struct {
	unit int32
	w    float32
}

// layerBuilder accumulates the rows of one hand-built network layer.
type layerBuilder struct {
	first   int32 // unit index of row 0
	entries []tensor.Triple
	bias    []float32
}

// add appends a row and returns the unit it produces.
func (b *layerBuilder) add(bias float32, terms ...term) int32 {
	r := int32(len(b.bias))
	for _, t := range terms {
		b.entries = append(b.entries, tensor.Triple{Row: r, Col: t.unit, Val: t.w})
	}
	b.bias = append(b.bias, bias)
	return b.first + r
}

// allKindsModel hand-builds a three-layer network (threshold,
// threshold, linear) whose rows lower to every plan.KernelKind. Each
// row shape is replicated over rotating input choices so every row
// group is wide enough for a multi-worker pool to split it.
func allKindsModel(t *testing.T) *nn.Model {
	t.Helper()
	const numPIs, reps = 8, 6
	l0 := &layerBuilder{first: 1 + numPIs}
	type repUnits struct{ a, b, c, d, buf, and2, and3, or3, nor3 int32 }
	var minterms [8]int32
	var us [reps]repUnits
	for rep := range us {
		pi := func(i int) int32 { return nn.PIUnit((rep + i) % numPIs) }
		a, b, c := pi(0), pi(1), pi(2)
		u := repUnits{a: a, b: b, c: c, d: pi(3)}
		l0.add(2, term{a, 1}, term{b, 1})                          // never fires: const0
		l0.add(-1, term{a, 1})                                     // always fires: const1
		u.buf = l0.add(0, term{a, 1})                              // copy
		l0.add(-1, term{a, -1})                                    // not
		u.and2 = l0.add(1, term{a, 1}, term{b, 1})                 // and
		u.and3 = l0.add(2, term{a, 1}, term{b, 1}, term{c, 1})     // and
		u.or3 = l0.add(0, term{a, 1}, term{b, 1}, term{c, 1})      // or
		l0.add(-3, term{a, -1}, term{b, -1}, term{c, -1})          // nand
		u.nor3 = l0.add(-1, term{a, -1}, term{b, -1}, term{c, -1}) // nor
		l0.add(1, term{a, 2}, term{b, 1})                          // 2a+b > 1: general
		us[rep] = u
	}
	// The eight minterms of the first three inputs: pairwise disjoint,
	// so any sum of them stays in {0,1} (the linear-layer invariant).
	for m := range minterms {
		var terms []term
		ones := 0
		for j := 0; j < 3; j++ {
			if m>>uint(j)&1 == 1 {
				terms = append(terms, term{nn.PIUnit(j), 1})
				ones++
			} else {
				terms = append(terms, term{nn.PIUnit(j), -1})
			}
		}
		minterms[m] = l0.add(float32(ones-1), terms...)
	}

	l1 := &layerBuilder{first: l0.first + int32(len(l0.bias))}
	var wide [reps]int32
	for rep, u := range us {
		// Seven-input threshold rows no boolean reduction matches: general.
		wide[rep] = l1.add(3, term{u.a, 1}, term{u.b, 1}, term{u.c, 1}, term{u.d, 1},
			term{u.buf, 1}, term{u.and3, 1}, term{u.or3, 1})
		l1.add(1, term{u.a, 2}, term{u.b, -1}, term{u.c, 1}, term{u.d, 3},
			term{u.buf, 1}, term{u.and3, -2}, term{u.nor3, 1})
	}

	l2 := &layerBuilder{first: l1.first + int32(len(l1.bias))}
	for rep, u := range us {
		l2.add(0, term{u.a, 1}, term{u.b, 1}, term{u.and2, -2}) // a+b-2ab: xor2
		l2.add(0, term{wide[rep], 1})                           // linear copy
		l2.add(0)                                               // empty sum: const0
		l2.add(0, term{u.a, 1}, term{u.and2, -1})               // a∧¬b, short linear
		var sum []term
		for m := 0; m < 7; m++ {
			sum = append(sum, term{minterms[(m+rep)%8], 1})
		}
		l2.add(0, sum...) // seven disjoint minterms: long linear
	}

	net := &nn.Network{NumPIs: numPIs}
	var outs []int32
	for li, b := range []*layerBuilder{l0, l1, l2} {
		w, err := tensor.FromTriples(len(b.bias), int(b.first), b.entries)
		if err != nil {
			t.Fatal(err)
		}
		layer := nn.Layer{W: w, Threshold: li < 2}
		if layer.Threshold {
			layer.Bias = b.bias
		}
		net.SegStart = append(net.SegStart, b.first)
		net.Layers = append(net.Layers, layer)
		net.TotalUnits = int(b.first) + len(b.bias)
		outs = append(outs, b.first) // pin one unit per layer as an output
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	model := &nn.Model{Net: net, CircuitName: "allkinds", Outputs: []nn.PortMap{{Name: "y", Units: outs}}}
	for i := 0; i < numPIs; i++ {
		model.Inputs = append(model.Inputs, nn.PortMap{Name: string(rune('a' + i)), Units: []int32{nn.PIUnit(i)}})
	}
	return model
}

// TestKernelTableConformance runs a plan covering every kernel kind on
// all three substrates, inline and through a multi-worker pool, and
// requires every arena row to equal the tensor.Packed*Range reference
// kernels (which know nothing of row groups or specialized kinds).
func TestKernelTableConformance(t *testing.T) {
	model := allKindsModel(t)
	p, err := plan.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	if ds := p.Lint(); len(ds) != 0 {
		t.Fatalf("hand-built plan does not lint clean: %v", ds)
	}
	mix := p.KernelMix()
	for k := 0; k < plan.NumKernelKinds; k++ {
		if mix[plan.KernelKind(k).String()] == 0 {
			t.Errorf("no %s row in the plan (mix %v)", plan.KernelKind(k), mix)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	for _, workers := range []int{1, 3} {
		pool := NewPool(workers)
		defer pool.Close()
		for _, batch := range []int{5, 64, 67, 130} {
			words := tensor.PackedWords(batch)
			ref := make([]uint64, p.ArenaUnits*words)
			var backends []*Backend
			for _, kind := range Kinds() {
				be, err := New(kind, p, batch, pool, nil)
				if err != nil {
					t.Fatal(err)
				}
				backends = append(backends, be)
			}
			rng := rand.New(rand.NewSource(int64(batch)*7 + int64(workers)))
			for trial := 0; trial < 3; trial++ {
				for u := 0; u <= model.Net.NumPIs; u++ {
					slot := p.Slot[u]
					for lane := 0; lane < batch; lane++ {
						v := u == nn.ConstUnit || rng.Intn(2) == 1
						for _, be := range backends {
							be.Set(slot, lane, v)
						}
						if w := &ref[int(slot)*words+lane/64]; v {
							*w |= 1 << uint(lane%64)
						} else {
							*w &^= 1 << uint(lane%64)
						}
					}
				}
				for li := range p.Layers {
					l := &p.Layers[li]
					out := ref[int(l.OutSlot)*words:]
					if l.Linear() {
						l.WInt.PackedLinearRange(ref, words, out, 0, l.WInt.Rows)
					} else {
						l.WInt.PackedThreshRange(ref, words, l.Thresh, out, 0, l.WInt.Rows)
					}
				}
				for _, be := range backends {
					be.Forward()
					for s := 0; s < p.ArenaUnits; s++ {
						for lane := 0; lane < batch; lane++ {
							want := ref[s*words+lane/64]>>uint(lane%64)&1 == 1
							if be.Get(int32(s), lane) != want {
								t.Fatalf("workers=%d batch=%d trial=%d %v: slot %d lane %d is %v, reference %v",
									workers, batch, trial, be.Kind(), s, lane, !want, want)
							}
						}
					}
				}
			}
		}
	}
}
