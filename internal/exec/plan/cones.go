package plan

import (
	"fmt"
	"sort"

	"c2nn/internal/nn"
)

// ComputeClusters computes the cone-of-influence clustering of a plan.
// It lives in this package (rather than internal/exec/analyze, which
// runs it and checks the result as PA004/PA005) so the execution
// stack — simengine compiling an activity-enabled plan, backends
// skipping clean clusters — can build the metadata without importing
// the analyzer, which itself imports simengine.
//
// Roots are the sequential signals whose cycle-to-cycle toggles drive
// all combinational change: one root per input port (stimulus loads a
// whole port at once, so its bits toggle together) and one per
// flip-flop Q bit. The constant-one unit has no root — everything it
// alone drives is static after the first pass.
//
// Two units belong to the same component when their influence cones
// overlap: every layer row is unioned with all its (non-constant)
// inputs, so a component is a connected region of the dataflow graph.
// Per layer, rows of one component form one cluster; edges between a
// cluster and the earlier clusters whose rows it reads carry the
// forward cleanliness propagation (dirty = direct root toggled ∨ any
// predecessor dirty). A cluster whose roots are all quiet and whose
// predecessors are all clean cannot change, so a backend may skip it.
func ComputeClusters(p *Plan) (*ClusterMeta, error) {
	net := p.Model.Net
	if len(net.SegStart) != len(net.Layers) {
		return nil, fmt.Errorf("plan: %d segment starts for %d layers", len(net.SegStart), len(net.Layers))
	}
	if len(p.Layers) != len(net.Layers) {
		return nil, fmt.Errorf("plan: %d plan layers for %d network layers", len(p.Layers), len(net.Layers))
	}
	piUnits := int32(1 + net.NumPIs)

	// rootOf maps each PI-block unit to its root index: roots are
	// numbered ports first (one per input port), then FF Q bits (one
	// per feedback). -1 marks the constant unit (rootless).
	numRoots := len(p.Model.Inputs) + len(p.Model.Feedback)
	rootOf := make([]int32, piUnits)
	for u := range rootOf {
		rootOf[u] = -1
	}
	refOf := make([]RootRef, numRoots)
	for pi, port := range p.Model.Inputs {
		refOf[pi] = RootRef{Kind: RootPort, Index: int32(pi)}
		for _, u := range port.Units {
			if u > 0 && u < piUnits {
				rootOf[u] = int32(pi)
			}
		}
	}
	for fi, fb := range p.Model.Feedback {
		ri := len(p.Model.Inputs) + fi
		refOf[ri] = RootRef{Kind: RootFF, Index: int32(fi)}
		if fb.ToPI > 0 && fb.ToPI < piUnits {
			// FF Q bits live in the PI block; the feedback root takes
			// precedence over any port that aliases the same unit.
			rootOf[fb.ToPI] = int32(ri)
		}
	}

	// Union-find over units: each row merges with its inputs.
	parent := make([]int32, net.TotalUnits)
	for u := range parent {
		parent[u] = int32(u)
	}
	var find func(int32) int32
	find = func(u int32) int32 {
		for parent[u] != u {
			parent[u] = parent[parent[u]] // path halving
			u = parent[u]
		}
		return u
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb { // deterministic: smaller unit wins
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for li := range net.Layers {
		seg := net.SegStart[li]
		w := net.Layers[li].W
		for r := 0; r < w.Rows; r++ {
			ru := seg + int32(r)
			for q := w.RowPtr[r]; q < w.RowPtr[r+1]; q++ {
				if c := w.Col[q]; c != nn.ConstUnit {
					union(ru, c)
				}
			}
		}
	}

	// Number components deterministically by first-appearing unit.
	compOf := make([]int32, net.TotalUnits)
	var numComp int32
	seen := make(map[int32]int32, 64)
	for u := int32(0); u < int32(net.TotalUnits); u++ {
		r := find(u)
		id, ok := seen[r]
		if !ok {
			id = numComp
			numComp++
			seen[r] = id
		}
		compOf[u] = id
	}

	// Per-layer clusters: group rows by component, ascending.
	meta := &ClusterMeta{NumComponents: numComp}
	meta.RowCluster = make([][]int32, len(net.Layers))
	// clusterIdx[(layer,comp)] -> index into meta.Clusters, but only
	// within the current layer; a flat map keyed by comp suffices
	// because layers are processed in order.
	for li := range net.Layers {
		seg := net.SegStart[li]
		w := net.Layers[li].W
		rc := make([]int32, w.Rows)
		byComp := make(map[int32]int32, 8) // comp -> cluster index this layer
		// First pass: create clusters in ascending component order so
		// the layout is deterministic.
		comps := make([]int32, 0, 8)
		present := make(map[int32]bool, 8)
		for r := 0; r < w.Rows; r++ {
			c := compOf[seg+int32(r)]
			if !present[c] {
				present[c] = true
				comps = append(comps, c)
			}
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
		for _, c := range comps {
			byComp[c] = int32(len(meta.Clusters))
			meta.Clusters = append(meta.Clusters, Cluster{Layer: int32(li), Component: c})
		}
		for r := 0; r < w.Rows; r++ {
			ci := byComp[compOf[seg+int32(r)]]
			rc[r] = ci
			meta.Clusters[ci].Rows = append(meta.Clusters[ci].Rows, int32(r))
		}
		meta.RowCluster[li] = rc

		// Second pass: direct roots and predecessor edges per cluster.
		type sets struct {
			roots map[int32]bool
			preds map[int32]bool
		}
		acc := make(map[int32]*sets, len(comps))
		for _, c := range comps {
			acc[byComp[c]] = &sets{roots: map[int32]bool{}, preds: map[int32]bool{}}
		}
		for r := 0; r < w.Rows; r++ {
			s := acc[rc[r]]
			for q := w.RowPtr[r]; q < w.RowPtr[r+1]; q++ {
				u := w.Col[q]
				switch {
				case u == nn.ConstUnit:
					// static, never dirty
				case u < piUnits:
					if ri := rootOf[u]; ri >= 0 {
						s.roots[ri] = true
					}
				default:
					// Produced by an earlier layer: find its cluster.
					pl, pr := ProducerOf(net, u)
					if pl >= 0 && pl < li {
						s.preds[meta.RowCluster[pl][pr]] = true
					} else if pl == li {
						// Intra-layer read (cannot happen on the layered
						// network, but stay safe): same cluster by
						// construction, no edge needed.
						_ = pr
					}
				}
			}
		}
		for _, c := range comps {
			ci := byComp[c]
			s := acc[ci]
			cl := &meta.Clusters[ci]
			cl.Roots = sortedRoots(s.roots, refOf)
			cl.Preds = sortedKeys(s.preds)
		}
	}
	return meta, nil
}

// ProducerOf locates the layer and row that produce a unit, or (-1, 0)
// for the const+PI block.
func ProducerOf(net *nn.Network, unit int32) (layer, row int) {
	piUnits := int32(1 + net.NumPIs)
	if unit < piUnits {
		return -1, 0
	}
	lo, hi := 0, len(net.Layers)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if net.SegStart[mid] <= unit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, int(unit - net.SegStart[lo])
}

// sortedRoots converts a root-index set into sorted RootRefs.
func sortedRoots(set map[int32]bool, refOf []RootRef) []RootRef {
	if len(set) == 0 {
		return nil
	}
	idx := make([]int32, 0, len(set))
	for r := range set {
		idx = append(idx, r)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	out := make([]RootRef, len(idx))
	for i, r := range idx {
		out[i] = refOf[r]
	}
	return out
}

// sortedKeys flattens a set into a sorted slice.
func sortedKeys(set map[int32]bool) []int32 {
	if len(set) == 0 {
		return nil
	}
	out := make([]int32, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
