package plan

import "sort"

// RowClass classifies the boolean function a lowered row computes, read
// off its integer weights and fused threshold. The taxonomy is the
// single source of truth shared by the kernel-specialization pass
// (kernel.go), the plan lint (EX007) and the analyze census
// (internal/exec/analyze): Buffer/Inverter rows are copies, And/Or/
// Nand/Nor rows map to word-wide bit ops on the packed substrate,
// Constant rows need no computation at all.
type RowClass uint8

// Row classes.
const (
	// ClassGeneral is any row not matching a special shape.
	ClassGeneral RowClass = iota
	// ClassConstant never changes: no inputs, or a threshold no input
	// combination can cross (always-0) or always crosses (always-1).
	ClassConstant
	// ClassBuffer copies its single input: one +1 weight, threshold 0.
	ClassBuffer
	// ClassInverter negates its single input: one -1 weight,
	// threshold -1.
	ClassInverter
	// ClassAnd fires iff all k inputs fire: all +1, threshold k-1.
	ClassAnd
	// ClassOr fires iff any input fires: all +1, threshold 0.
	ClassOr
	// ClassNand: all -1, threshold -k.
	ClassNand
	// ClassNor: all -1, threshold -1.
	ClassNor
	// ClassXorForm is the exact-linear 2-input XOR polynomial
	// a + b - 2ab: coefficient multiset {+1, +1, -2} on a linear row.
	ClassXorForm
)

var rowClassNames = [...]string{
	ClassGeneral:  "general",
	ClassConstant: "constant",
	ClassBuffer:   "buffer",
	ClassInverter: "inverter",
	ClassAnd:      "and",
	ClassOr:       "or",
	ClassNand:     "nand",
	ClassNor:      "nor",
	ClassXorForm:  "xor-form",
}

// String names the class.
func (c RowClass) String() string {
	if int(c) < len(rowClassNames) {
		return rowClassNames[c]
	}
	return "rowclass(?)"
}

// NumRowClasses is the size of the class taxonomy.
const NumRowClasses = len(rowClassNames)

// ClassifyRow classifies row r of a lowered layer.
func ClassifyRow(l *Layer, r int) RowClass {
	lo, hi := l.WInt.RowPtr[r], l.WInt.RowPtr[r+1]
	k := int64(hi - lo)
	var pos, neg int64 // sums of positive weights / |negative weights|
	allPlus, allMinus := true, true
	for q := lo; q < hi; q++ {
		v := l.WInt.Val[q]
		switch {
		case v >= 0:
			pos += int64(v)
			allMinus = false
			if v != 1 {
				allPlus = false
			}
		default:
			neg -= int64(v)
			allPlus = false
			if v != -1 {
				allMinus = false
			}
		}
	}

	if l.Linear() {
		// A linear row's output is its exact integer sum; the network
		// invariant keeps it in {0,1}. A row with no inputs is the
		// constant 0.
		if k == 0 {
			return ClassConstant
		}
		if k == 3 {
			coef := []int32{l.WInt.Val[lo], l.WInt.Val[lo+1], l.WInt.Val[lo+2]}
			sort.Slice(coef, func(i, j int) bool { return coef[i] < coef[j] })
			if coef[0] == -2 && coef[1] == 1 && coef[2] == 1 {
				return ClassXorForm
			}
		}
		if k == 1 && l.WInt.Val[lo] == 1 {
			return ClassBuffer
		}
		return ClassGeneral
	}

	th := int64(l.Thresh[r])
	// The row fires iff sum > th; sum ranges over [-neg, pos].
	if k == 0 || th >= pos {
		return ClassConstant // can never fire
	}
	if th < -neg {
		return ClassConstant // always fires
	}
	switch {
	case k == 1 && allPlus && th == 0:
		return ClassBuffer
	case k == 1 && allMinus && th == -1:
		return ClassInverter
	case allPlus && th == k-1:
		return ClassAnd
	case allPlus && th == 0:
		return ClassOr
	case allMinus && th == -k:
		return ClassNand
	case allMinus && th == -1:
		return ClassNor
	}
	return ClassGeneral
}

// ConstValue resolves the output of a ClassConstant row: true when the
// row always fires, false when it never can. Meaningless (false) for
// non-constant rows.
func ConstValue(l *Layer, r int) bool {
	if l.Linear() {
		return false // the only constant linear rows are empty sums
	}
	var neg int64
	for q := l.WInt.RowPtr[r]; q < l.WInt.RowPtr[r+1]; q++ {
		if v := l.WInt.Val[q]; v < 0 {
			neg -= int64(v)
		}
	}
	return int64(l.Thresh[r]) < -neg
}
