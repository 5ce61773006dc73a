package plan

import (
	"fmt"
	"math/bits"
)

// The specialized kernel IR: at compile time every row of every layer
// is assigned the cheapest kernel that computes it exactly, and rows
// sharing a kernel are batched into RowGroups so backends dispatch once
// per (layer, kind) instead of re-deciding per row.
//
// Selection is driven by the shared row classifier (classify.go):
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
//   - remaining general rows with ≤6 inputs become direct 64-bit truth
//     tables (KTable) when the Shannon evaluation of the table is
//     statically no costlier than the bit-sliced plane arithmetic;
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
	// KConst0 / KConst1 store a constant into every lane.
	KConst0
	KConst1
	// KCopy copies the single input word; KNot complements it.
	KCopy
	KNot
	// KAnd / KOr / KNand / KNor reduce the input words with word-wide
	// boolean ops.
	KAnd
	KOr
	KNand
	KNor
	// KXor2 XORs the two +1 inputs of an exact-linear XOR polynomial.
	KXor2
	// KTable evaluates the row's 64-bit truth table over ≤6 gathered
	// input words by Shannon cofactoring.
	KTable
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
	KTable:   "table",
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

// MaxTableInputs is the widest row a single-word truth-table kernel can
// evaluate: 2^6 assignments fill one uint64.
const MaxTableInputs = 6

// RowGroup batches the rows of one layer that share a specialized
// kernel. Rows are ascending; Tables is parallel to Rows for KTable
// groups (nil otherwise).
type RowGroup struct {
	Kind   KernelKind
	Rows   []int32
	Tables []uint64
}

// KindOfRow selects the specialized kernel for row r of a lowered
// layer, returning the row's truth table when the selection is KTable
// (zero otherwise). The selection is a pure function of the row's
// weights and threshold, so lint (EX007) re-derives it to prove the
// compiled groups agree with their source.
func KindOfRow(l *Layer, r int) (KernelKind, uint64) {
	switch ClassifyRow(l, r) {
	case ClassConstant:
		if ConstValue(l, r) {
			return KConst1, 0
		}
		return KConst0, 0
	case ClassBuffer:
		return KCopy, 0
	case ClassInverter:
		return KNot, 0
	case ClassAnd:
		return KAnd, 0
	case ClassOr:
		return KOr, 0
	case ClassNand:
		return KNand, 0
	case ClassNor:
		return KNor, 0
	case ClassXorForm:
		return KXor2, 0
	}
	if k := int(l.WInt.RowPtr[r+1] - l.WInt.RowPtr[r]); k >= 1 && k <= MaxTableInputs {
		tab := RowTable(l, r)
		adds, cmps := RowPlaneCost(l, r)
		if TableOps(tab, k) <= adds+cmps {
			return KTable, tab
		}
	}
	if l.Linear() {
		return KLinear, 0
	}
	return KGeneral, 0
}

// RowTable enumerates the truth table of a row with ≤ MaxTableInputs
// inputs: bit i is the row's output when input j (the j-th stored
// nonzero) carries bit j of i. Threshold rows compare Σ w > Thresh[r];
// exact-linear rows use the network invariant Σ w ∈ {0,1}, i.e. Σ w > 0.
func RowTable(l *Layer, r int) uint64 {
	p0, p1 := l.WInt.RowPtr[r], l.WInt.RowPtr[r+1]
	k := int(p1 - p0)
	var th int64
	if !l.Linear() {
		th = int64(l.Thresh[r])
	}
	var tab uint64
	for i := 0; i < 1<<uint(k); i++ {
		var sum int64
		for j := 0; j < k; j++ {
			if i>>uint(j)&1 == 1 {
				sum += int64(l.WInt.Val[p0+int32(j)])
			}
		}
		if sum > th {
			tab |= 1 << uint(i)
		}
	}
	return tab
}

// TableOps prices the Shannon evaluation of a k-input table: 3 word ops
// per mux, 1 per constant/shared-cofactor leaf — mirroring the pruning
// of tensor.EvalTable64 so selection and cost model agree.
func TableOps(tab uint64, k int) int64 {
	if k <= 0 || tab == 0 || tab == tableMask(k) {
		return 1
	}
	half := uint(1) << uint(k-1)
	m := tableMask(k - 1)
	lo, hi := tab&m, tab>>half&m
	if lo == hi {
		return TableOps(lo, k-1)
	}
	return TableOps(lo, k-1) + TableOps(hi, k-1) + 3
}

func tableMask(k int) uint64 {
	if k >= 6 {
		return ^uint64(0)
	}
	return 1<<(1<<uint(k)) - 1
}

// RowPlaneCost prices row r on the generic bit-sliced path: plane
// additions (one per set bit of each |weight| and of the folded
// threshold) and the borrow-pass height of the compare. It is the
// single per-row pricing shared by kernel selection and the analyze
// cost model.
func RowPlaneCost(l *Layer, r int) (planeAdds, comparePasses int64) {
	var rowPos, rowNeg int64
	for q := l.WInt.RowPtr[r]; q < l.WInt.RowPtr[r+1]; q++ {
		v := l.WInt.Val[q]
		if v >= 0 {
			planeAdds += int64(bits.OnesCount32(uint32(v)))
			rowPos += int64(v)
		} else {
			planeAdds += int64(bits.OnesCount32(uint32(-v)))
			rowNeg -= int64(v)
		}
	}
	if !l.Linear() {
		th := int64(l.Thresh[r])
		if th >= 0 {
			planeAdds += int64(bits.OnesCount64(uint64(th)))
			rowNeg += th
		} else {
			planeAdds += int64(bits.OnesCount64(uint64(-th)))
			rowPos -= th
		}
		h := bits.Len64(uint64(rowPos))
		if n := bits.Len64(uint64(rowNeg)); n > h {
			h = n
		}
		comparePasses += int64(h)
	}
	return planeAdds, comparePasses
}

// buildGroups partitions a lowered layer's rows into specialized kernel
// groups, ordered by kind with ascending rows — a deterministic
// function of the layer, so independent compiles agree bit for bit.
func buildGroups(l *Layer) {
	var groups [NumKernelKinds]RowGroup
	for r := 0; r < l.WInt.Rows; r++ {
		kind, tab := KindOfRow(l, r)
		g := &groups[kind]
		g.Rows = append(g.Rows, int32(r))
		if kind == KTable {
			g.Tables = append(g.Tables, tab)
		}
	}
	l.Groups = l.Groups[:0]
	for k := range groups {
		if len(groups[k].Rows) > 0 {
			groups[k].Kind = KernelKind(k)
			l.Groups = append(l.Groups, groups[k])
		}
	}
}

// RowKinds expands the layer's groups into parallel per-row kind and
// table lookups.
func (l *Layer) RowKinds() (kinds []KernelKind, tables []uint64) {
	kinds = make([]KernelKind, l.WInt.Rows)
	tables = make([]uint64, l.WInt.Rows)
	for gi := range l.Groups {
		g := &l.Groups[gi]
		for i, r := range g.Rows {
			if int(r) >= len(kinds) {
				continue
			}
			kinds[r] = g.Kind
			if g.Kind == KTable && i < len(g.Tables) {
				tables[r] = g.Tables[i]
			}
		}
	}
	return kinds, tables
}

// KernelMix tallies rows per kernel kind over the whole plan — the
// census `c2nn analyze` and `bench backends` report.
func (p *Plan) KernelMix() map[string]int {
	mix := make(map[string]int)
	for li := range p.Layers {
		for _, g := range p.Layers[li].Groups {
			mix[g.Kind.String()] += len(g.Rows)
		}
	}
	return mix
}
