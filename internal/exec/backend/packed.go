package backend

import (
	"fmt"
	"math/bits"

	"c2nn/internal/exec/plan"
	"c2nn/internal/obs"
	"c2nn/internal/tensor"
)

// packed is the bit-packed substrate: every activation is one bit, 64
// stimulus lanes share a uint64 word, and threshold rows evaluate by
// bit-sliced plane arithmetic (the tensor.Packed*Rows kernels). Lanes
// beyond the batch in the last word carry garbage; the lane accessors
// never expose them and the per-lane plane arithmetic keeps them from
// contaminating real lanes.
type packed struct {
	batch int
	words int
	acts  []uint64 // ArenaUnits × words, neuron-major
	prev  []uint64 // the root rows as of the previous activity pass
}

func newPacked(p *plan.Plan, batch int, tr *obs.Trace) (*packed, error) {
	for li := range p.Layers {
		l := &p.Layers[li]
		if l.MaxPos >= 1<<tensor.MaxPlanes || l.MaxNeg >= 1<<tensor.MaxPlanes {
			return nil, fmt.Errorf("backend: layer %d row sums exceed the 2^%d bit-sliced accumulator",
				li, tensor.MaxPlanes)
		}
	}
	words := tensor.PackedWords(batch)
	if tr != nil {
		// Lane occupancy: real stimulus lanes vs the 64-per-word packing
		// capacity (partial last words waste lanes). Plane occupancy: per
		// layer, the bit-sliced accumulator height its row sums demand,
		// against the MaxPlanes=48 capacity the planner enforces.
		capLanes := int64(words) * 64
		tr.Gauge("bp.lanes.used").Set(int64(batch))
		tr.Gauge("bp.lanes.capacity").Set(capLanes)
		tr.Gauge("bp.lanes.occupancy_pct").Set(100 * int64(batch) / capLanes)
		h := tr.Histogram("bp.planes", []int64{2, 4, 8, 12, 16, 24, 32, 40, 48})
		var maxPlanes int64
		for li := range p.Layers {
			l := &p.Layers[li]
			planes := int64(bits.Len64(uint64(l.MaxPos)))
			if n := int64(bits.Len64(uint64(l.MaxNeg))); n > planes {
				planes = n
			}
			h.Observe(planes)
			if planes > maxPlanes {
				maxPlanes = planes
			}
		}
		tr.Gauge("bp.planes.max").Set(maxPlanes)
		tr.Gauge("bp.planes.capacity").Set(tensor.MaxPlanes)
	}
	return &packed{batch: batch, words: words, acts: make([]uint64, p.ArenaUnits*words)}, nil
}

func (s *packed) run(l *plan.Layer, kind plan.KernelKind, rows []int32) {
	w, x, words := l.WInt, s.acts, s.words
	y := s.acts[int(l.OutSlot)*words:]
	switch kind {
	case plan.KConst0:
		tensor.PackedConstRows(y, words, rows, false)
	case plan.KConst1:
		tensor.PackedConstRows(y, words, rows, true)
	case plan.KCopy:
		w.PackedCopyRows(x, words, y, rows, false)
	case plan.KNot:
		w.PackedCopyRows(x, words, y, rows, true)
	case plan.KAnd:
		w.PackedAndRows(x, words, y, rows, false)
	case plan.KNand:
		w.PackedAndRows(x, words, y, rows, true)
	case plan.KOr:
		w.PackedOrRows(x, words, y, rows, false)
	case plan.KNor:
		w.PackedOrRows(x, words, y, rows, true)
	case plan.KXor2:
		w.PackedXorRows(x, words, y, rows)
	case plan.KLinear:
		w.PackedLinearRows(x, words, y, rows)
	case plan.KGeneral:
		w.PackedThreshRows(x, words, l.Thresh, y, rows)
	default:
		panic("backend: no packed kernel for " + kind.String())
	}
}

func (s *packed) row(slot int32) []uint64 {
	return s.acts[int(slot)*s.words : (int(slot)+1)*s.words]
}

func (s *packed) snapshot(units int) { s.prev = make([]uint64, units*s.words) }

// rootToggled is one XOR + zero test per word, last word masked to
// real lanes so the garbage lanes beyond the batch never dirty a root.
func (s *packed) rootToggled(slots []int32, off int) bool {
	changed, tail := false, tensor.PackedTailMask(s.batch)
	for i, slot := range slots {
		cur, prev := s.row(slot), s.prev[(off+i)*s.words:(off+i+1)*s.words]
		if tensor.PackedRowDiffers(cur, prev, tail) {
			changed = true
			copy(prev, cur)
		}
	}
	return changed
}

func (s *packed) SetPort(slots []int32, vals []uint64) {
	tensor.PackedSetPort(s.acts, s.words, slots, vals, s.batch)
}

func (s *packed) GetPort(slots []int32, out []uint64) {
	tensor.PackedGetPort(s.acts, s.words, slots, out, s.batch)
}

func (s *packed) Set(slot int32, lane int, v bool) {
	w := &s.acts[int(slot)*s.words+lane/64]
	bit := uint64(1) << uint(lane%64)
	if v {
		*w |= bit
	} else {
		*w &^= bit
	}
}

func (s *packed) Get(slot int32, lane int) bool {
	return s.acts[int(slot)*s.words+lane/64]>>uint(lane%64)&1 == 1
}

func (s *packed) SetUniform(slot int32, v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	row := s.row(slot)
	for i := range row {
		row[i] = w
	}
}

func (s *packed) Copy(dst, src int32) { copy(s.row(dst), s.row(src)) }

func (s *packed) Zero() { clear(s.acts) }

func (s *packed) MemoryBytes() int64 { return int64(len(s.acts)) * 8 }
