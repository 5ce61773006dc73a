package analyze

import (
	"math/bits"

	"c2nn/internal/exec/plan"
)

// The static cost model prices one forward pass of each layer on each
// execution substrate, from the plan alone:
//
//   - float32 / int32: one multiply-add per stored nonzero per lane
//     (threshold rows add one compare per row per lane);
//
//   - bit-packed: per 64-lane word, a row dispatched through the
//     generic bit-sliced kernel costs one bit-plane addition per set
//     bit of |weight| (tensor.addWeighted) plus the folded threshold's
//     set bits, and one borrow pass per accumulator-height bit for the
//     compare. Rows lowered to specialized kernels (the row-group IR)
//     are priced by their fused form instead: constants and copies are
//     one word op, boolean reductions one op per input word.
//
// The per-word op count is exact in the worst case (every input word
// nonzero; the kernel's zero-word skip makes the real count
// activity-dependent — which is precisely the gap the activity-driven
// backend will close). The roofline figure Intensity = word ops / bytes
// moved tells which layers are compute- versus traffic-bound.

// LayerCost prices one layer.
type LayerCost struct {
	Layer  int    `json:"layer"`
	Kernel string `json:"kernel"`
	Rows   int    `json:"rows"`
	NNZ    int    `json:"nnz"`
	// Clusters is the number of cone clusters partitioning the rows.
	Clusters int `json:"clusters"`
	// KernelMix tallies the layer's rows per specialized kernel kind.
	KernelMix map[string]int `json:"kernel_mix,omitempty"`
	// FloatMACs is multiply-adds per lane on the float32/int32 path.
	FloatMACs int64 `json:"float_macs"`
	// PlaneAdds is bit-plane additions per packed word on the rows that
	// stay on the generic bit-sliced path (weights plus folded
	// thresholds).
	PlaneAdds int64 `json:"plane_adds"`
	// ComparePasses is the summed borrow-pass height of the threshold
	// compares per packed word (generic rows only).
	ComparePasses int64 `json:"compare_passes"`
	// FusedOps is word ops per packed word on the rows lowered to
	// specialized kernels (constants, copies, boolean reductions, LUTs).
	FusedOps int64 `json:"fused_ops,omitempty"`
	// PackedWordOps = PlaneAdds + ComparePasses + FusedOps: word ops per
	// packed word column.
	PackedWordOps int64 `json:"packed_word_ops"`
	// PackedBytes is bytes moved per packed word column: 8 bytes per
	// nonzero activation read + 8 per row write + the CSR structure
	// streamed once (4-byte col + 4-byte val per nonzero).
	PackedBytes int64 `json:"packed_bytes"`
	// Intensity is PackedWordOps / PackedBytes — the roofline axis.
	Intensity float64 `json:"intensity"`
	// Depth is the layer's position on the critical path (layers are
	// strictly sequential, so it equals the layer index).
	Depth int `json:"depth"`
}

// CostTotals sums the model over all layers.
type CostTotals struct {
	Rows          int     `json:"rows"`
	NNZ           int     `json:"nnz"`
	FloatMACs     int64   `json:"float_macs"`
	PlaneAdds     int64   `json:"plane_adds"`
	ComparePasses int64   `json:"compare_passes"`
	FusedOps      int64   `json:"fused_ops,omitempty"`
	PackedWordOps int64   `json:"packed_word_ops"`
	PackedBytes   int64   `json:"packed_bytes"`
	Intensity     float64 `json:"intensity"`
	// CriticalPath is the number of sequential layers per forward pass.
	CriticalPath int `json:"critical_path"`
}

// CostReport is the full static cost model of a plan.
type CostReport struct {
	Layers []LayerCost `json:"layers"`
	Total  CostTotals  `json:"total"`
}

// rowPackedCost prices one row under its selected kernel — the single
// per-row pricing shared by Cost and ClusterCosts so cluster costs
// partition layer costs exactly.
func rowPackedCost(l *plan.Layer, r int, kind plan.KernelKind) (planeAdds, comparePasses, fusedOps int64) {
	k := int64(l.WInt.RowPtr[r+1] - l.WInt.RowPtr[r])
	switch kind {
	case plan.KConst0, plan.KConst1:
		return 0, 0, 1
	case plan.KCopy, plan.KNot:
		return 0, 0, 1
	case plan.KAnd, plan.KOr:
		return 0, 0, k
	case plan.KNand, plan.KNor:
		return 0, 0, k + 1
	case plan.KXor2:
		return 0, 0, 2
	}
	planeAdds, comparePasses = rowPlaneCost(l, r)
	return planeAdds, comparePasses, 0
}

// rowPlaneCost prices row r on the generic bit-sliced path: plane
// additions (one per set bit of each |weight| and of the folded
// threshold) and the borrow-pass height of the compare.
func rowPlaneCost(l *plan.Layer, r int) (planeAdds, comparePasses int64) {
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

// Cost prices every layer of the plan. When the plan carries cluster
// metadata the per-layer cluster count is filled from it.
func Cost(p *plan.Plan) *CostReport {
	rep := &CostReport{}
	for li := range p.Layers {
		l := &p.Layers[li]
		kernel := "threshold"
		if l.Linear() {
			kernel = "linear"
		}
		lc := LayerCost{
			Layer:  li,
			Kernel: kernel,
			Rows:   l.WInt.Rows,
			NNZ:    len(l.WInt.Val),
			Depth:  li,
		}
		if p.Clusters != nil && li < len(p.Clusters.RowCluster) {
			seenC := map[int32]bool{}
			for _, ci := range p.Clusters.RowCluster[li] {
				seenC[ci] = true
			}
			lc.Clusters = len(seenC)
		}
		kinds := l.RowKinds()
		for r := 0; r < l.WInt.Rows; r++ {
			lc.FloatMACs += int64(l.WInt.RowPtr[r+1] - l.WInt.RowPtr[r])
			pa, cp, fo := rowPackedCost(l, r, kinds[r])
			lc.PlaneAdds += pa
			lc.ComparePasses += cp
			lc.FusedOps += fo
			if lc.KernelMix == nil {
				lc.KernelMix = map[string]int{}
			}
			lc.KernelMix[kinds[r].String()]++
		}
		lc.PackedWordOps = lc.PlaneAdds + lc.ComparePasses + lc.FusedOps
		lc.PackedBytes = 8*int64(lc.NNZ) + 8*int64(lc.Rows) + 8*int64(lc.NNZ)
		if lc.PackedBytes > 0 {
			lc.Intensity = float64(lc.PackedWordOps) / float64(lc.PackedBytes)
		}
		rep.Layers = append(rep.Layers, lc)

		rep.Total.Rows += lc.Rows
		rep.Total.NNZ += lc.NNZ
		rep.Total.FloatMACs += lc.FloatMACs
		rep.Total.PlaneAdds += lc.PlaneAdds
		rep.Total.ComparePasses += lc.ComparePasses
		rep.Total.FusedOps += lc.FusedOps
		rep.Total.PackedWordOps += lc.PackedWordOps
		rep.Total.PackedBytes += lc.PackedBytes
	}
	rep.Total.CriticalPath = len(p.Layers)
	if rep.Total.PackedBytes > 0 {
		rep.Total.Intensity = float64(rep.Total.PackedWordOps) / float64(rep.Total.PackedBytes)
	}
	return rep
}

// ClusterCost prices one cluster: the subset of a layer's rows it owns.
type ClusterCost struct {
	Cluster       int   `json:"cluster"`
	Layer         int   `json:"layer"`
	Component     int   `json:"component"`
	Rows          int   `json:"rows"`
	NNZ           int   `json:"nnz"`
	PackedWordOps int64 `json:"packed_word_ops"`
}

// ClusterCosts prices every cluster of the plan's attached metadata
// (nil when no metadata is attached). The sum over a layer's clusters
// equals the layer's cost: both paths price rows with rowPackedCost.
func ClusterCosts(p *plan.Plan) []ClusterCost {
	if p.Clusters == nil {
		return nil
	}
	kindCache := make(map[int32][]plan.KernelKind)
	out := make([]ClusterCost, len(p.Clusters.Clusters))
	for ci := range p.Clusters.Clusters {
		c := &p.Clusters.Clusters[ci]
		cc := ClusterCost{Cluster: ci, Layer: int(c.Layer), Component: int(c.Component)}
		if int(c.Layer) >= len(p.Layers) {
			out[ci] = cc
			continue
		}
		l := &p.Layers[c.Layer]
		kinds, ok := kindCache[c.Layer]
		if !ok {
			kinds = l.RowKinds()
			kindCache[c.Layer] = kinds
		}
		for _, r := range c.Rows {
			if int(r) >= l.WInt.Rows {
				continue
			}
			cc.Rows++
			cc.NNZ += int(l.WInt.RowPtr[r+1] - l.WInt.RowPtr[r])
			pa, cp, fo := rowPackedCost(l, int(r), kinds[r])
			cc.PackedWordOps += pa + cp + fo
		}
		out[ci] = cc
	}
	return out
}

// DirtyCostFraction prices an activity run's per-cluster dirty counts
// (Engine.ActivityClusterDirty: dirty[c] passes dispatched cluster c)
// with ClusterCosts: Σ dirty[c]·cost[c] / (passes · Σ cost), the share
// of the full-dispatch packed word ops the run actually spent. Zero
// for no passes, no clusters or no cost.
func DirtyCostFraction(p *plan.Plan, dirty []int64, passes int64) float64 {
	var spent, total int64
	for ci, cc := range ClusterCosts(p) {
		total += cc.PackedWordOps
		if ci < len(dirty) {
			spent += dirty[ci] * cc.PackedWordOps
		}
	}
	if passes <= 0 || total <= 0 {
		return 0
	}
	return float64(spent) / (float64(passes) * float64(total))
}

// ParallelBound is the static speed-up bound of the row-parallel pool
// at the given width: the plan's total dispatch cost (plan.Layer.RowCost
// summed over every grouped row) over the sum, per row group, of its
// costliest chunk as plan.Layer.CutRows cuts it — the chunk the layer
// barrier waits for. A group the pool runs inline is one chunk. 1 for
// an empty plan or a width below 2.
func ParallelBound(p *plan.Plan, workers int) float64 {
	if workers < 2 {
		return 1
	}
	cuts := make([]int, workers+1)
	var total, critical int64
	for li := range p.Layers {
		l := &p.Layers[li]
		for _, g := range l.Groups {
			chunks := l.CutRows(g.Rows, cuts)
			var longest int64
			for k := 0; k < chunks; k++ {
				var c int64
				for _, r := range g.Rows[cuts[k]:cuts[k+1]] {
					c += l.RowCost(r)
				}
				total += c
				longest = max(longest, c)
			}
			critical += longest
		}
	}
	if critical == 0 {
		return 1
	}
	return float64(total) / float64(critical)
}
