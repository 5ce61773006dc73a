package backend

import (
	"slices"

	"c2nn/internal/exec/plan"
)

// lanes is the one-element-per-lane substrate, instantiated as float32
// (the arithmetic of the paper's fused SpMM + threshold formulation,
// weights and biases from W and Bias) and as int32 (exact integer
// arithmetic over WInt and Thresh — free of rounding concerns by
// construction, the reference the other substrates are compared to).
// Activations are exact 0/1 in either type, so equality compares and
// the multiply-as-AND below are sound.
type lanes[T float32 | int32] struct {
	batch int
	acts  []T // ArenaUnits × batch, neuron-major
	prev  []T // root rows as of the previous activity pass
	// weights picks a layer's values and thresholds in the element
	// type; the CSR structure (RowPtr, Col) is shared by W and WInt.
	weights func(*plan.Layer) (val, thresh []T)
}

func newLanes[T float32 | int32](p *plan.Plan, batch int, weights func(*plan.Layer) ([]T, []T)) *lanes[T] {
	return &lanes[T]{batch: batch, acts: make([]T, p.ArenaUnits*batch), weights: weights}
}

func (s *lanes[T]) row(slot int32) []T {
	return s.acts[int(slot)*s.batch : (int(slot)+1)*s.batch]
}

// run evaluates one row group. KGeneral/KLinear is the reference form
// — accumulate Σ w·x (sum), then binarize against the row threshold
// (threshold layers only) — and every specialized kind is equal to it
// under the binary-activation invariant, which the differential tests
// enforce across substrates.
func (s *lanes[T]) run(l *plan.Layer, kind plan.KernelKind, rows []int32) {
	w := l.WInt
	val, thresh := s.weights(l)
	for _, r := range rows {
		o := s.row(l.OutSlot + r)
		p0, p1 := w.RowPtr[r], w.RowPtr[r+1]
		cols, vals := w.Col[p0:p1], val[p0:p1]
		switch kind {
		case plan.KConst0:
			clear(o)
		case plan.KConst1:
			fill(o, 1)
		case plan.KCopy:
			copy(o, s.row(cols[0]))
		case plan.KNot:
			for i, xv := range s.row(cols[0]) {
				o[i] = 1 - xv
			}
		case plan.KAnd, plan.KNand:
			copy(o, s.row(cols[0]))
			for _, c := range cols[1:] {
				for i, xv := range s.row(c) {
					o[i] *= xv
				}
			}
			if kind == plan.KNand {
				invert(o)
			}
		case plan.KOr, plan.KNor:
			copy(o, s.row(cols[0]))
			for _, c := range cols[1:] {
				for i, xv := range s.row(c) {
					if xv != 0 {
						o[i] = 1
					}
				}
			}
			if kind == plan.KNor {
				invert(o)
			}
		case plan.KXor2:
			clear(o)
			for j, c := range cols {
				if vals[j] != 1 {
					continue
				}
				for i, xv := range s.row(c) {
					if xv != 0 {
						o[i] = 1 - o[i]
					}
				}
			}
		case plan.KGeneral:
			s.sum(o, cols, vals)
			th := thresh[r]
			for i := range o {
				if o[i] > th {
					o[i] = 1
				} else {
					o[i] = 0
				}
			}
		case plan.KLinear:
			s.sum(o, cols, vals)
		default:
			panic("backend: no lane kernel for " + kind.String())
		}
	}
}

// sum is the SpMM row product o = Σ vals[j]·row(cols[j]).
func (s *lanes[T]) sum(o []T, cols []int32, vals []T) {
	clear(o)
	for j, c := range cols {
		// Resliced to len(o) so the compiler drops the o[i] bounds check.
		x := s.row(c)[:len(o)]
		if v := vals[j]; v == 1 {
			for i, xv := range x {
				o[i] += xv
			}
		} else {
			for i, xv := range x {
				o[i] += v * xv
			}
		}
	}
}

func fill[T float32 | int32](o []T, v T) {
	for i := range o {
		o[i] = v
	}
}

func invert[T float32 | int32](o []T) {
	for i := range o {
		o[i] = 1 - o[i]
	}
}

func (s *lanes[T]) snapshot(units int) { s.prev = make([]T, units*s.batch) }

func (s *lanes[T]) rootToggled(slots []int32, off int) bool {
	changed := false
	for i, slot := range slots {
		cur, prev := s.row(slot), s.prev[(off+i)*s.batch:(off+i+1)*s.batch]
		if !slices.Equal(cur, prev) {
			changed = true
			copy(prev, cur)
		}
	}
	return changed
}

func b2t[T float32 | int32](v bool) T {
	if v {
		return 1
	}
	return 0
}

// SetPort and GetPort are direct loops: bit i of lane b is element b
// of row slots[i].
func (s *lanes[T]) SetPort(slots []int32, vals []uint64) {
	stride := max(1, (len(slots)+63)/64)
	n := min(s.batch, len(vals)/stride)
	for i, slot := range slots {
		row := s.row(slot)
		for b := range row[:n] {
			row[b] = T(vals[b*stride+i/64] >> uint(i%64) & 1)
		}
		clear(row[n:])
	}
}

func (s *lanes[T]) GetPort(slots []int32, out []uint64) {
	clear(out)
	stride := max(1, (len(slots)+63)/64)
	n := min(s.batch, len(out)/stride)
	for i, slot := range slots {
		for b, v := range s.row(slot)[:n] {
			if v != 0 {
				out[b*stride+i/64] |= 1 << uint(i%64)
			}
		}
	}
}

func (s *lanes[T]) Set(slot int32, lane int, v bool) { s.acts[int(slot)*s.batch+lane] = b2t[T](v) }

func (s *lanes[T]) Get(slot int32, lane int) bool { return s.acts[int(slot)*s.batch+lane] != 0 }

func (s *lanes[T]) SetUniform(slot int32, v bool) { fill(s.row(slot), b2t[T](v)) }

func (s *lanes[T]) Copy(dst, src int32) { copy(s.row(dst), s.row(src)) }

func (s *lanes[T]) Zero() { clear(s.acts) }

// MemoryBytes: both element types are four bytes wide.
func (s *lanes[T]) MemoryBytes() int64 { return int64(len(s.acts)) * 4 }
