// Package plan lowers a compiled neural-network model (internal/nn)
// into an executable plan: the middle layer of the plan / kernel /
// backend split of the execution engine. Where nn.Model describes the
// network (what to compute), a Plan fixes how it is computed:
//
//   - kernel selection — every row is assigned the exact kernel its
//     weights and threshold match and rows sharing a kernel are batched
//     into row groups (kernel.go), so backends dispatch once per
//     (layer, kind);
//   - threshold fusion — the float bias vector of each threshold layer
//     is folded into an integer threshold (all weights and biases of a
//     compiled circuit are exact integers), so a row fires iff its
//     integer sum exceeds Thresh[r], with no float compare needed;
//   - activation liveness + arena allocation — a layer's activation
//     block is only needed until its last reader, so blocks are placed
//     in a shared arena with first-fit reuse instead of one flat
//     TotalUnits×Batch slab; column indices are rewritten from unit
//     space into arena-slot space so kernels index the arena directly;
//   - integer weight mirror — every layer carries an int32 copy of its
//     weights for the integer and bit-packed backends.
//
// The plan is backend-agnostic: internal/exec/backend holds the
// float32, int32 and bit-packed uint64 implementations, and
// internal/simengine is the facade that ties plan, backend and the
// model's port metadata together.
package plan

import (
	"fmt"
	"math"

	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/tensor"
)

// Layer is one lowered layer of the plan.
type Layer struct {
	// W is the layer matrix with columns rewritten into arena slots
	// (RowPtr and Val are shared with the model's matrix).
	W *tensor.CSR
	// WInt mirrors W with int32 weights for the integer and bit-packed
	// backends (structure shared with W).
	WInt *tensor.Int32CSR
	// Bias is the model's float bias vector (threshold kernels only).
	Bias []float32
	// Thresh is the fused integer threshold: row r fires iff its
	// integer sum strictly exceeds Thresh[r]. Nil for exact-linear
	// layers (no threshold; the network invariant keeps them binary).
	Thresh []int32
	// OutSlot is the first arena slot of this layer's output block;
	// the block spans W.Rows consecutive slots.
	OutSlot int32
	// MaxPos and MaxNeg bound the positive and negative per-lane
	// accumulators of any row (weights plus folded threshold); the
	// bit-packed backend sizes its plane stacks from them.
	MaxPos, MaxNeg int64
	// Groups partitions the layer's rows by specialized kernel kind
	// (kernel.go), ordered by kind with ascending rows. Every row
	// appears in exactly one group; backends dispatch per group.
	Groups []RowGroup
}

// Linear reports whether the layer is an exact linear product rather
// than a thresholded one.
func (l *Layer) Linear() bool { return l.Thresh == nil }

// Plan is a lowered, executable form of a model's network.
type Plan struct {
	// Model is the source model (ports and feedback still reference
	// unit space; translate through Slot).
	Model *nn.Model
	// ArenaUnits is the number of activation rows a backend must
	// allocate — at most Net.TotalUnits, less when liveness analysis
	// finds reusable blocks.
	ArenaUnits int
	// Slot maps every network unit to its arena row. Two units may
	// share a slot only when their live ranges are disjoint.
	Slot []int32
	// Layers are the lowered layers, in execution order.
	Layers []Layer
	// Clusters is the cone-of-influence clustering of the plan's rows,
	// attached by Options.Activity at compile time or later by
	// internal/exec/analyze (nil until then). It is the metadata the
	// activity-driven backend consumes to skip clean clusters; see
	// cluster.go for the model. Like the rest of the plan it is derived
	// from the model on every compile, never stored.
	Clusters *ClusterMeta
	// Activity is the activity-driven dispatch index (activity.go),
	// compiled in by Options.Activity; nil otherwise. Backends lazily
	// build it through BuildActivityIndex when activity is enabled on
	// a plan compiled without the option.
	Activity *ActivityIndex
}

// Options tunes plan compilation.
type Options struct {
	// DisableArenaReuse keeps every layer's activation block alive for
	// the whole forward pass instead of recycling dead blocks. Fault
	// injection needs this: per-lane overlays read and rewrite unit
	// activations between layers, including units whose coefficients
	// cancelled out of every weight row — liveness would recycle those
	// slots mid-pass.
	DisableArenaReuse bool
	// Activity compiles the plan for activity-driven execution: the
	// cone clustering is computed and attached, every row group is cut
	// along cluster boundaries into the dispatch index (activity.go),
	// and arena reuse is disabled so clean clusters' output slots
	// survive skipped passes (the slot-injectivity requirement).
	Activity bool
	// Trace, when non-nil, records a "plan" span with lowering
	// attributes and the arena-allocation counters
	// (plan.arena.slots_reused / plan.arena.slots_fresh).
	Trace *obs.Trace
}

// Compile lowers a model into an execution plan with default options.
func Compile(m *nn.Model) (*Plan, error) {
	return CompileOpts(m, Options{})
}

// CompileOpts lowers a model into an execution plan. It fails on
// networks whose weights or biases are not exact integers (compiled
// circuits always are) or whose row sums could overflow the bit-sliced
// accumulator capacity.
func CompileOpts(m *nn.Model, opts Options) (*Plan, error) {
	sp := opts.Trace.Begin("plan")
	defer sp.End()
	net := m.Net
	nLayers := len(net.Layers)
	if len(net.SegStart) != nLayers {
		return nil, fmt.Errorf("plan: %d segment starts for %d layers", len(net.SegStart), nLayers)
	}
	piUnits := 1 + net.NumPIs

	// segOf finds the producing segment of a unit: -1 for the
	// const+PI block, otherwise the layer index.
	segOf := func(unit int32) int {
		if int(unit) < piUnits {
			return -1
		}
		lo, hi := 0, nLayers // invariant: SegStart[lo] <= unit < SegStart[hi]
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if net.SegStart[mid] <= unit {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Liveness in unit space: lastUse[s] is the last layer reading
	// segment s (its own index when never read, so it dies at once);
	// segments holding port or feedback endpoints are permanent.
	lastUse := make([]int, nLayers)
	for s := range lastUse {
		lastUse[s] = s
	}
	for li := range net.Layers {
		for _, col := range net.Layers[li].W.Col {
			if s := segOf(col); s >= 0 && li > lastUse[s] {
				lastUse[s] = li
			}
		}
	}
	permanent := make([]bool, nLayers)
	if opts.Activity {
		opts.DisableArenaReuse = true
	}
	if opts.DisableArenaReuse {
		for s := range permanent {
			permanent[s] = true
		}
	}
	pin := func(unit int32) {
		if s := segOf(unit); s >= 0 {
			permanent[s] = true
		}
	}
	for _, p := range m.Outputs {
		for _, u := range p.Units {
			pin(u)
		}
	}
	for _, p := range m.Inputs {
		for _, u := range p.Units {
			pin(u) // inputs live in the PI block, but stay safe on odd models
		}
	}
	for _, fb := range m.Feedback {
		pin(fb.FromUnit)
		pin(fb.ToPI)
	}

	// Arena allocation: the const+PI block is permanent at offset 0;
	// layer blocks are placed first-fit, releasing dead blocks before
	// each allocation.
	slot := make([]int32, net.TotalUnits)
	for u := 0; u < piUnits && u < net.TotalUnits; u++ {
		slot[u] = int32(u)
	}
	a := &arena{top: int32(piUnits)}
	freeAt := make([][]int, nLayers+1)
	for s, last := range lastUse {
		if !permanent[s] {
			freeAt[last+1] = append(freeAt[last+1], s)
		}
	}
	outSlot := make([]int32, nLayers)
	for li := range net.Layers {
		for _, s := range freeAt[li] {
			a.release(outSlot[s], int32(net.Layers[s].W.Rows))
		}
		rows := net.Layers[li].W.Rows
		outSlot[li] = a.alloc(int32(rows))
		seg := int(net.SegStart[li])
		for r := 0; r < rows; r++ {
			slot[seg+r] = outSlot[li] + int32(r)
		}
	}

	p := &Plan{Model: m, ArenaUnits: int(a.top), Slot: slot}
	for li := range net.Layers {
		pl, err := lowerLayer(&net.Layers[li], li, slot, int(a.top), outSlot[li])
		if err != nil {
			return nil, err
		}
		p.Layers = append(p.Layers, pl)
	}
	if opts.Activity {
		idx, err := BuildActivityIndex(p) // computes and attaches Clusters
		if err != nil {
			return nil, err
		}
		p.Activity = idx
	}
	if tr := opts.Trace; tr != nil {
		tr.Counter("plan.arena.slots_reused").Add(a.reused)
		tr.Counter("plan.arena.slots_fresh").Add(a.fresh)
		sp.SetInt("layers", int64(len(p.Layers))).
			SetInt("total_units", int64(net.TotalUnits)).
			SetInt("arena_units", int64(p.ArenaUnits)).
			SetInt("slots_reused", a.reused).
			SetInt("slots_fresh", a.fresh)
		mix := p.KernelMix()
		for k := KernelKind(0); int(k) < NumKernelKinds; k++ {
			if n := mix[k.String()]; n > 0 {
				sp.SetInt("rows_"+k.String(), int64(n))
			}
		}
	}
	return p, nil
}

// lowerLayer rewrites one layer's columns into slot space, fuses the
// threshold, builds the integer mirror and groups rows by kernel.
func lowerLayer(l *nn.Layer, li int, slot []int32, arenaUnits int, out int32) (Layer, error) {
	w := l.W
	cols := make([]int32, len(w.Col))
	vals := make([]int32, len(w.Val))
	for i, c := range w.Col {
		cols[i] = slot[c]
	}
	for i, v := range w.Val {
		iv := int32(v)
		if float32(iv) != v {
			return Layer{}, fmt.Errorf("plan: layer %d weight entry %d is non-integral (%v)", li, i, v)
		}
		vals[i] = iv
	}
	pl := Layer{
		W:       &tensor.CSR{Rows: w.Rows, Cols: arenaUnits, RowPtr: w.RowPtr, Col: cols, Val: w.Val},
		WInt:    &tensor.Int32CSR{Rows: w.Rows, Cols: arenaUnits, RowPtr: w.RowPtr, Col: cols, Val: vals},
		OutSlot: out,
	}
	if l.Threshold {
		pl.Bias = l.Bias
		pl.Thresh = make([]int32, len(l.Bias))
		for r, b := range l.Bias {
			f := math.Floor(float64(b))
			if f < math.MinInt32 || f > math.MaxInt32 {
				return Layer{}, fmt.Errorf("plan: layer %d bias %d out of integer range (%v)", li, r, b)
			}
			pl.Thresh[r] = int32(f)
		}
	}

	// Accumulator bounds per row: positive and negative weight sums
	// plus the side the folded threshold lands on.
	for r := 0; r < w.Rows; r++ {
		var pos, neg int64
		for p := w.RowPtr[r]; p < w.RowPtr[r+1]; p++ {
			if v := int64(vals[p]); v >= 0 {
				pos += v
			} else {
				neg -= v
			}
		}
		if pl.Thresh != nil {
			if th := int64(pl.Thresh[r]); th >= 0 {
				neg += th
			} else {
				pos -= th
			}
		}
		if pos > pl.MaxPos {
			pl.MaxPos = pos
		}
		if neg > pl.MaxNeg {
			pl.MaxNeg = neg
		}
	}
	if pl.MaxPos >= 1<<tensor.MaxPlanes || pl.MaxNeg >= 1<<tensor.MaxPlanes {
		return Layer{}, fmt.Errorf("plan: layer %d row sums exceed 2^%d accumulator capacity", li, tensor.MaxPlanes)
	}
	buildGroups(&pl)
	return pl, nil
}

// blockRange is one free arena extent.
type blockRange struct{ start, size int32 }

// arena is a first-fit block allocator over activation rows with
// coalescing release, tracking the high-water mark and how many slots
// were served from recycled blocks versus fresh growth (the
// observability layer's arena-reuse metric).
type arena struct {
	top    int32
	free   []blockRange
	reused int64
	fresh  int64
}

func (a *arena) alloc(size int32) int32 {
	if size == 0 {
		return a.top
	}
	for i := range a.free {
		b := &a.free[i]
		if b.size >= size {
			start := b.start
			b.start += size
			b.size -= size
			if b.size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.reused += int64(size)
			return start
		}
	}
	start := a.top
	a.top += size
	a.fresh += int64(size)
	return start
}

func (a *arena) release(start, size int32) {
	if size == 0 {
		return
	}
	// Insert sorted by start, then coalesce neighbours.
	i := 0
	for i < len(a.free) && a.free[i].start < start {
		i++
	}
	a.free = append(a.free, blockRange{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = blockRange{start, size}
	if i+1 < len(a.free) && a.free[i].start+a.free[i].size == a.free[i+1].start {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].start+a.free[i-1].size == a.free[i].start {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}
