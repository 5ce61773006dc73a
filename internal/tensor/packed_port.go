package tensor

import "math/bits"

// PackedSetPort writes a port value into the packed arena x (words
// words per row). vals is lane-major — lane after lane, ceil(width/64)
// words per lane, LSB first (simengine.Cycle) — and bit i of lane b
// becomes lane b of row slots[i]. Only the first lanes lanes that vals
// holds in full are taken; every other lane of the rows, up to the end
// of their last word, is written as zero.
func PackedSetPort(x []uint64, words int, slots []int32, vals []uint64, lanes int) {
	stride := max(1, (len(slots)+63)/64) // a loaded model may declare a 0-bit port
	lanes = min(lanes, len(vals)/stride)
	for i, slot := range slots {
		off, sh := i/64, uint(i%64)
		row := x[int(slot)*words : (int(slot)+1)*words]
		for w := range row {
			var word uint64
			for b := w * 64; b < min(w*64+64, lanes); b++ {
				word |= (vals[b*stride+off] >> sh & 1) << uint(b%64)
			}
			row[w] = word
		}
	}
}

// PackedGetPort is the inverse gather: it overwrites out with the port
// held in rows slots of x, in PackedSetPort's layout, for the first
// lanes lanes that out holds in full. Bits above the width read as zero.
// It visits only the set lanes of each row word, so a mostly-zero port
// costs little more than its clear.
func PackedGetPort(x []uint64, words int, slots []int32, out []uint64, lanes int) {
	clear(out)
	stride := max(1, (len(slots)+63)/64)
	lanes = min(lanes, len(out)/stride)
	for i, slot := range slots {
		off, sh := i/64, uint(i%64)
		row := x[int(slot)*words : int(slot)*words+(lanes+63)/64]
		for w, word := range row {
			if w == len(row)-1 {
				word &= PackedTailMask(lanes)
			}
			for ; word != 0; word &= word - 1 {
				out[(64*w+bits.TrailingZeros64(word))*stride+off] |= 1 << sh
			}
		}
	}
}
