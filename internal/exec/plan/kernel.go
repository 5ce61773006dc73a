package plan

import "fmt"

// The specialized kernel IR: at compile time every row of every layer
// is assigned the specialized kernel its shape matches, and rows
// sharing a kernel are batched into RowGroups so backends dispatch once
// per (layer, kind) instead of re-deciding per row.
//
// Selection reads the row's integer weights and fused threshold
// (KindOfRow); the kind is the row's only classification:
//
//   - constant rows become KConst0/KConst1 stores (the output block may
//     sit in a recycled arena slot, so constants are rewritten every
//     pass);
//   - buffer/inverter rows become word copies (KCopy/KNot);
//   - AND/OR/NAND/NOR-shaped threshold rows become word-wide boolean
//     reductions over their input words (KAnd/KOr/KNand/KNor);
//   - the exact-linear XOR polynomial a+b-2ab becomes a single word XOR
//     of the two +1 inputs (KXor2) — exact because the -2 term is the
//     AND term neuron of the same LUT, so a+b-2ab ∈ {0,1} collapses to
//     a⊕b whenever the term invariant t=a∧b holds, which the compiled
//     network (and the fault overlay, which forces per-LUT-consistent
//     term assignments) guarantees;
//   - everything else stays on the general bit-sliced path, now over
//     explicit row lists with a multi-word unrolled inner loop
//     (KGeneral for threshold rows, KLinear for exact-linear rows).

// KernelKind selects the specialized kernel of one row group.
type KernelKind uint8

// Kernel kinds, in dispatch order.
const (
	// KGeneral is the bit-sliced threshold path: Σ w·x > Thresh[r].
	KGeneral KernelKind = iota
	// KLinear is the bit-sliced exact-linear path: Σ w·x > 0.
	KLinear
	// KConst0 / KConst1 store a constant into every lane: a row with no
	// inputs, or a threshold no input combination can cross (KConst0)
	// or every combination crosses (KConst1).
	KConst0
	KConst1
	// KCopy copies the single input word (one +1 weight, threshold 0;
	// or a linear row of one +1 weight); KNot complements it (one -1
	// weight, threshold -1).
	KCopy
	KNot
	// KAnd / KOr / KNand / KNor reduce the input words with word-wide
	// boolean ops. Over k inputs: AND is all +1 with threshold k-1, OR
	// all +1 with threshold 0, NAND all -1 with threshold -k, NOR all -1
	// with threshold -1.
	KAnd
	KOr
	KNand
	KNor
	// KXor2 XORs the two +1 inputs of the exact-linear XOR polynomial
	// a + b - 2ab (coefficient multiset {+1, +1, -2}).
	KXor2
)

var kernelKindNames = [...]string{
	KGeneral: "general",
	KLinear:  "linear",
	KConst0:  "const0",
	KConst1:  "const1",
	KCopy:    "copy",
	KNot:     "not",
	KAnd:     "and",
	KOr:      "or",
	KNand:    "nand",
	KNor:     "nor",
	KXor2:    "xor2",
}

// NumKernelKinds is the size of the kernel taxonomy.
const NumKernelKinds = len(kernelKindNames)

// String names the kernel kind.
func (k KernelKind) String() string {
	if int(k) < len(kernelKindNames) {
		return kernelKindNames[k]
	}
	return fmt.Sprintf("kernelkind(%d)", uint8(k))
}

// RowGroup batches the rows of one layer that share a specialized
// kernel. Rows are ascending.
type RowGroup struct {
	Kind KernelKind
	Rows []int32
}

// KindOfRow selects the specialized kernel for row r of a lowered
// layer. The selection is a shape match — a pure function of the row's
// weights and threshold, read in one pass over the row — so lint
// (EX007) re-derives it to prove the compiled groups agree with their
// source.
func KindOfRow(l *Layer, r int) KernelKind {
	lo, hi := l.WInt.RowPtr[r], l.WInt.RowPtr[r+1]
	k := int64(hi - lo)
	var pos, neg int64 // sums of positive weights / |negative weights|
	var plusOnes, minusOnes, minusTwos int64
	for _, v := range l.WInt.Val[lo:hi] {
		if v >= 0 {
			pos += int64(v)
		} else {
			neg -= int64(v)
		}
		switch v {
		case 1:
			plusOnes++
		case -1:
			minusOnes++
		case -2:
			minusTwos++
		}
	}
	allPlus, allMinus := plusOnes == k, minusOnes == k

	if l.Linear() {
		// A linear row's output is its exact integer sum; the network
		// invariant keeps it in {0,1}. A row with no inputs is the
		// constant 0.
		switch {
		case k == 0:
			return KConst0
		case k == 1 && allPlus:
			return KCopy
		case k == 3 && plusOnes == 2 && minusTwos == 1:
			return KXor2
		}
		return KLinear
	}
	// The row fires iff sum > th; sum ranges over [-neg, pos].
	th := int64(l.Thresh[r])
	switch {
	case th < -neg:
		return KConst1 // always fires
	case k == 0 || th >= pos:
		return KConst0 // can never fire
	case k == 1 && allPlus && th == 0:
		return KCopy
	case k == 1 && allMinus && th == -1:
		return KNot
	case allPlus && th == k-1:
		return KAnd
	case allPlus && th == 0:
		return KOr
	case allMinus && th == -k:
		return KNand
	case allMinus && th == -1:
		return KNor
	}
	return KGeneral
}

// RowCost is row r's dispatch cost: its nonzeros plus one for the
// output write. A row group holds one kernel kind, so this count ranks
// its rows by cost on every substrate.
func (l *Layer) RowCost(r int32) int64 {
	return int64(l.WInt.RowPtr[r+1]-l.WInt.RowPtr[r]) + 1
}

// CutRows is the one partition rule of the row-parallel pool. It cuts
// rows — a row group, or the dirty subset of one — into w =
// len(cuts)-1 contiguous chunks of near-equal total RowCost (w ≥ 1):
// chunk k is rows[cuts[k]:cuts[k+1]]. A row goes to the chunk holding
// the midpoint of its span on the running cost sum, so cut k falls
// where that sum reaches k/w of the total and a chunk exceeds its
// share by less than half a row at each end. Fewer than two rows per
// chunk do not pay for a hand-over: such a range is one chunk. CutRows
// returns the number of chunks, 1 or w; chunks may be empty when one
// row outweighs the rest.
func (l *Layer) CutRows(rows []int32, cuts []int) int {
	w, n := len(cuts)-1, len(rows)
	cuts[0] = 0
	if w < 2 || n < 2*w {
		cuts[1] = n
		return 1
	}
	var total int64
	for _, r := range rows {
		total += l.RowCost(r)
	}
	// Row i belongs to chunk ≥ k iff its midpoint s + c/2 ≥ k·total/w,
	// i.e. w·(2s + c) ≥ 2k·total, in integers.
	k, s := 1, int64(0)
	for i, r := range rows {
		c := l.RowCost(r)
		for k < w && int64(w)*(2*s+c) >= 2*int64(k)*total {
			cuts[k] = i
			k++
		}
		if k == w {
			break
		}
		s += c
	}
	for ; k <= w; k++ {
		cuts[k] = n
	}
	return w
}

// buildGroups partitions a lowered layer's rows into specialized kernel
// groups, ordered by kind with ascending rows — a deterministic
// function of the layer, so independent compiles agree bit for bit.
func buildGroups(l *Layer) {
	var groups [NumKernelKinds]RowGroup
	for r := 0; r < l.WInt.Rows; r++ {
		g := &groups[KindOfRow(l, r)]
		g.Rows = append(g.Rows, int32(r))
	}
	l.Groups = l.Groups[:0]
	for k := range groups {
		if len(groups[k].Rows) > 0 {
			groups[k].Kind = KernelKind(k)
			l.Groups = append(l.Groups, groups[k])
		}
	}
}

// RowKinds expands the layer's groups into a per-row kind lookup.
func (l *Layer) RowKinds() []KernelKind {
	kinds := make([]KernelKind, l.WInt.Rows)
	for gi := range l.Groups {
		g := &l.Groups[gi]
		for _, r := range g.Rows {
			if int(r) < len(kinds) {
				kinds[r] = g.Kind
			}
		}
	}
	return kinds
}

// KernelMix tallies rows per kernel kind over the whole plan — the one
// row census: the plan span's rows_<kind> attributes, `c2nn analyze`'s
// kernel_mix and PA008 summary, and `bench` all report it.
func (p *Plan) KernelMix() map[string]int {
	mix := make(map[string]int)
	for li := range p.Layers {
		for _, g := range p.Layers[li].Groups {
			mix[g.Kind.String()] += len(g.Rows)
		}
	}
	return mix
}
