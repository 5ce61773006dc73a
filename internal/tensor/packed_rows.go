// Specialized packed row kernels — the uint64 substrate of the
// per-row-group kernel IR (internal/exec/plan). Where packed.go
// evaluates contiguous row ranges through the generic bit-sliced
// threshold path, the kernels here take explicit row lists and exploit
// the row's shape: constants are stores, buffers are word copies,
// AND/OR/NAND/NOR rows are word-wide boolean reductions, and the
// remaining general rows run a 4-word unrolled bit-sliced loop.
//
// Layout matches packed.go: x is the packed activation arena (words
// words per unit), y is the packed output block with row r at
// y[r*words:(r+1)*words]. Every kernel is lane-wise — garbage lanes
// beyond the batch in the last word may hold anything and can never
// contaminate real lanes.
package tensor

import "math/bits"

// PackedConstRows stores a constant into every lane of each listed row.
// Constant rows must be rewritten every pass: their output block may
// occupy a recycled arena slot holding a dead layer's bits.
func PackedConstRows(y []uint64, words int, rows []int32, v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	for _, r := range rows {
		out := y[int(r)*words : (int(r)+1)*words]
		for i := range out {
			out[i] = w
		}
	}
}

// PackedCopyRows copies (invert=false) or complements (invert=true) the
// single input word of each listed buffer/inverter row.
func (m *Int32CSR) PackedCopyRows(x []uint64, words int, y []uint64, rows []int32, invert bool) {
	for _, r := range rows {
		src := int(m.Col[m.RowPtr[r]]) * words
		out := y[int(r)*words : (int(r)+1)*words]
		if invert {
			for i := range out {
				out[i] = ^x[src+i]
			}
		} else {
			copy(out, x[src:src+words])
		}
	}
}

// PackedAndRows computes the word-wide AND of each listed row's inputs
// (NAND with invert): 64 lanes of a k-input gate per word op, against
// O(k + compare height) plane ops on the generic path.
func (m *Int32CSR) PackedAndRows(x []uint64, words int, y []uint64, rows []int32, invert bool) {
	for _, r := range rows {
		p0, p1 := m.RowPtr[r], m.RowPtr[r+1]
		out := y[int(r)*words : (int(r)+1)*words]
		src := int(m.Col[p0]) * words
		copy(out, x[src:src+words])
		for p := p0 + 1; p < p1; p++ {
			xc := x[int(m.Col[p])*words:]
			for i := range out {
				out[i] &= xc[i]
			}
		}
		if invert {
			for i := range out {
				out[i] = ^out[i]
			}
		}
	}
}

// PackedOrRows computes the word-wide OR of each listed row's inputs
// (NOR with invert).
func (m *Int32CSR) PackedOrRows(x []uint64, words int, y []uint64, rows []int32, invert bool) {
	for _, r := range rows {
		p0, p1 := m.RowPtr[r], m.RowPtr[r+1]
		out := y[int(r)*words : (int(r)+1)*words]
		src := int(m.Col[p0]) * words
		copy(out, x[src:src+words])
		for p := p0 + 1; p < p1; p++ {
			xc := x[int(m.Col[p])*words:]
			for i := range out {
				out[i] |= xc[i]
			}
		}
		if invert {
			for i := range out {
				out[i] = ^out[i]
			}
		}
	}
}

// PackedXorRows XORs the +1-weighted inputs of each listed row — the
// exact-linear XOR polynomial a+b-2ab collapsed to a⊕b (the -2 entry is
// the AND term of the same LUT and cancels exactly on every consistent
// assignment).
func (m *Int32CSR) PackedXorRows(x []uint64, words int, y []uint64, rows []int32) {
	for _, r := range rows {
		p0, p1 := m.RowPtr[r], m.RowPtr[r+1]
		out := y[int(r)*words : (int(r)+1)*words]
		first := true
		for p := p0; p < p1; p++ {
			if m.Val[p] != 1 {
				continue
			}
			src := int(m.Col[p]) * words
			if first {
				copy(out, x[src:src+words])
				first = false
				continue
			}
			xc := x[src:]
			for i := range out {
				out[i] ^= xc[i]
			}
		}
		if first {
			for i := range out {
				out[i] = 0
			}
		}
	}
}

// packedUnroll is the word width of the unrolled general inner loop:
// 4 uint64 words (256 lanes) per plane pass, with fixed-size array
// pointers so the inner loops run bounds-check free.
const packedUnroll = 4

// addAtPlane4 is addAtPlane over 4 words at once; n is the shared
// plane count (the max over the 4 columns).
func addAtPlane4(pl *[MaxPlanes][packedUnroll]uint64, n int, x0, x1, x2, x3 uint64, j int) int {
	for x0|x1|x2|x3 != 0 {
		if j >= n {
			for k := n; k < j; k++ {
				pl[k] = [packedUnroll]uint64{}
			}
			pl[j] = [packedUnroll]uint64{x0, x1, x2, x3}
			return j + 1
		}
		p := &pl[j]
		x0, p[0] = p[0]&x0, p[0]^x0
		x1, p[1] = p[1]&x1, p[1]^x1
		x2, p[2] = p[2]&x2, p[2]^x2
		x3, p[3] = p[3]&x3, p[3]^x3
		j++
	}
	return n
}

// addWeighted4 adds weight·x to the 4-wide accumulator.
func addWeighted4(pl *[MaxPlanes][packedUnroll]uint64, n int, x *[packedUnroll]uint64, weight uint32) int {
	for ; weight != 0; weight &= weight - 1 {
		n = addAtPlane4(pl, n, x[0], x[1], x[2], x[3], bits.TrailingZeros32(weight))
	}
	return n
}

// addConst4 adds the constant c to every lane of the 4-wide accumulator.
func addConst4(pl *[MaxPlanes][packedUnroll]uint64, n int, c uint64) int {
	all := ^uint64(0)
	for ; c != 0; c &= c - 1 {
		n = addAtPlane4(pl, n, all, all, all, all, bits.TrailingZeros64(c))
	}
	return n
}

// greater4 writes the 4-wide lane mask of pos > neg into o.
func greater4(pos *[MaxPlanes][packedUnroll]uint64, np int, neg *[MaxPlanes][packedUnroll]uint64, nn int, o *[packedUnroll]uint64) {
	n := np
	if nn > n {
		n = nn
	}
	b0, b1, b2, b3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for i := 0; i < n; i++ {
		var a, b [packedUnroll]uint64
		if i < np {
			a = pos[i]
		}
		if i < nn {
			b = neg[i]
		}
		b0 = (^a[0] & (b[0] | b0)) | (b[0] & b0)
		b1 = (^a[1] & (b[1] | b1)) | (b[1] & b1)
		b2 = (^a[2] & (b[2] | b2)) | (b[2] & b2)
		b3 = (^a[3] & (b[3] | b3)) | (b[3] & b3)
	}
	o[0], o[1], o[2], o[3] = ^b0, ^b1, ^b2, ^b3
}

// PackedThreshRows is PackedThreshRange over an explicit row list with
// a 4-word unrolled inner loop: four packed words (256 lanes) share one
// pass over the row's nonzeros, and columns whose four words are all
// zero are skipped in one test. The tail of a partial last iteration
// falls back to the scalar plane path.
func (m *Int32CSR) PackedThreshRows(x []uint64, words int, thresh []int32, y []uint64, rows []int32) {
	var pos4, neg4 [MaxPlanes][packedUnroll]uint64
	var pos, neg [MaxPlanes]uint64
	for _, r := range rows {
		th := thresh[r]
		p0, p1 := m.RowPtr[r], m.RowPtr[r+1]
		base := int(r) * words
		wi := 0
		for ; wi+packedUnroll <= words; wi += packedUnroll {
			np, nn := 0, 0
			for p := p0; p < p1; p++ {
				xc := (*[packedUnroll]uint64)(x[int(m.Col[p])*words+wi:])
				if xc[0]|xc[1]|xc[2]|xc[3] == 0 {
					continue
				}
				if v := m.Val[p]; v >= 0 {
					np = addWeighted4(&pos4, np, xc, uint32(v))
				} else {
					nn = addWeighted4(&neg4, nn, xc, uint32(-v))
				}
			}
			if th >= 0 {
				nn = addConst4(&neg4, nn, uint64(th))
			} else {
				np = addConst4(&pos4, np, uint64(-th))
			}
			greater4(&pos4, np, &neg4, nn, (*[packedUnroll]uint64)(y[base+wi:]))
		}
		for ; wi < words; wi++ {
			np, nn := 0, 0
			for p := p0; p < p1; p++ {
				xw := x[int(m.Col[p])*words+wi]
				if xw == 0 {
					continue
				}
				if v := m.Val[p]; v >= 0 {
					np = addWeighted(&pos, np, xw, uint32(v))
				} else {
					nn = addWeighted(&neg, nn, xw, uint32(-v))
				}
			}
			if th >= 0 {
				nn = addConst(&neg, nn, uint64(th))
			} else {
				np = addConst(&pos, np, uint64(-th))
			}
			y[base+wi] = greater(&pos, np, &neg, nn)
		}
	}
}

// PackedLinearRows is the exact-linear variant of PackedThreshRows:
// the output bit is (Σ w·x) > 0 by the network invariant.
func (m *Int32CSR) PackedLinearRows(x []uint64, words int, y []uint64, rows []int32) {
	var pos4, neg4 [MaxPlanes][packedUnroll]uint64
	var pos, neg [MaxPlanes]uint64
	for _, r := range rows {
		p0, p1 := m.RowPtr[r], m.RowPtr[r+1]
		base := int(r) * words
		wi := 0
		for ; wi+packedUnroll <= words; wi += packedUnroll {
			np, nn := 0, 0
			for p := p0; p < p1; p++ {
				xc := (*[packedUnroll]uint64)(x[int(m.Col[p])*words+wi:])
				if xc[0]|xc[1]|xc[2]|xc[3] == 0 {
					continue
				}
				if v := m.Val[p]; v >= 0 {
					np = addWeighted4(&pos4, np, xc, uint32(v))
				} else {
					nn = addWeighted4(&neg4, nn, xc, uint32(-v))
				}
			}
			greater4(&pos4, np, &neg4, nn, (*[packedUnroll]uint64)(y[base+wi:]))
		}
		for ; wi < words; wi++ {
			np, nn := 0, 0
			for p := p0; p < p1; p++ {
				xw := x[int(m.Col[p])*words+wi]
				if xw == 0 {
					continue
				}
				if v := m.Val[p]; v >= 0 {
					np = addWeighted(&pos, np, xw, uint32(v))
				} else {
					nn = addWeighted(&neg, nn, xw, uint32(-v))
				}
			}
			y[base+wi] = greater(&pos, np, &neg, nn)
		}
	}
}
