package plan

import (
	"errors"
	"fmt"
)

// Activity-driven dispatch index: the compile-time product that lets a
// backend skip clean clusters. The cluster metadata (cluster.go) says
// *which* rows belong to which cone; this index re-cuts every layer's
// row groups (kernel.go) along cluster boundaries, so that at run time
// a backend can dispatch exactly the rows whose cluster is dirty while
// keeping the per-kind fused kernels.
//
// Skipping is only sound when a clean cluster's output slots still
// hold last pass's values. Arena reuse breaks that — a slot shared
// between two disjoint-live-range segments would be overwritten by the
// later writer — so BuildActivityIndex proves slot injectivity (every
// unit owns its slot exclusively, the dynamic counterpart of the
// PA001–PA003 aliasing rules) and refuses aliased plans. Compiling
// with Options.Activity forces DisableArenaReuse, which makes the
// proof hold by construction.

// ErrNoClusters is returned when activity dispatch is requested on a
// plan without usable cluster metadata (hand-built plans, or plans
// whose clustering was never computed and cannot be).
var ErrNoClusters = errors.New("plan: no cluster metadata for activity dispatch")

// ErrAliasedSlots is returned when a plan's arena shares slots between
// units: skipped clusters could then read or keep stale values, so
// activity dispatch refuses the plan. Compile with DisableArenaReuse
// (Options.Activity implies it).
var ErrAliasedSlots = errors.New("plan: arena slots are aliased; activity dispatch needs DisableArenaReuse")

// ActivitySegment is the slice of one row group owned by one cluster:
// the unit of skipping. Rows keep the group's ascending order; Tables
// is the parallel 64-bit LUT slice for KTable groups, nil otherwise.
type ActivitySegment struct {
	Cluster int32
	Rows    []int32
	Tables  []uint64
}

// ActivityIndex is the per-plan dispatch index for activity-driven
// execution.
type ActivityIndex struct {
	// Segments[li][gi] cuts layer li's group gi along cluster
	// boundaries, segments in order of first appearance (ascending
	// rows). A group wholly owned by one cluster has one segment whose
	// Rows alias the group's Rows.
	Segments [][][]ActivitySegment
	// NumRoots is the number of sequential roots: ports first, then
	// flip-flop Q bits, mirroring ComputeClusters' numbering.
	NumRoots int
	// RootSlots[r] are the arena slots holding root r's units (all
	// bits of a port, or the single FF Q bit), what a backend diffs
	// against its previous-pass snapshot.
	RootSlots [][]int32
	// ClusterRoots[ci] are the flattened root indices cluster ci reads
	// directly (RootRef resolved against the ports-then-FFs order).
	ClusterRoots [][]int32
}

// BuildActivityIndex builds the dispatch index for a plan, computing
// and attaching cluster metadata first when the plan carries none. It
// returns ErrNoClusters for plans that cannot be clustered into any
// cluster, and ErrAliasedSlots when the arena shares slots between
// units (the slot-injectivity proof fails).
func BuildActivityIndex(p *Plan) (*ActivityIndex, error) {
	meta := p.Clusters
	if meta == nil {
		m, err := ComputeClusters(p)
		if err != nil {
			return nil, fmt.Errorf("%w (%v)", ErrNoClusters, err)
		}
		meta = m
		p.Clusters = meta
	}
	if len(meta.Clusters) == 0 {
		return nil, ErrNoClusters
	}
	if len(meta.RowCluster) != len(p.Layers) {
		return nil, fmt.Errorf("plan: cluster metadata covers %d layers, plan has %d",
			len(meta.RowCluster), len(p.Layers))
	}

	// Slot-injectivity proof: every unit maps to a distinct arena slot,
	// so no skipped cluster's output can be clobbered (or read stale)
	// through sharing. This independently re-checks what compiling with
	// DisableArenaReuse guarantees by construction.
	owner := make([]int32, p.ArenaUnits)
	for i := range owner {
		owner[i] = -1
	}
	for u, s := range p.Slot {
		if s < 0 || int(s) >= p.ArenaUnits {
			return nil, fmt.Errorf("plan: unit %d slot %d outside arena of %d", u, s, p.ArenaUnits)
		}
		if owner[s] >= 0 {
			return nil, fmt.Errorf("%w: units %d and %d share slot %d", ErrAliasedSlots, owner[s], u, s)
		}
		owner[s] = int32(u)
	}

	idx := &ActivityIndex{Segments: make([][][]ActivitySegment, len(p.Layers))}

	// Root slots, ports first then FFs — the same numbering
	// ComputeClusters used for RootRef indices.
	m := p.Model
	idx.NumRoots = len(m.Inputs) + len(m.Feedback)
	idx.RootSlots = make([][]int32, 0, idx.NumRoots)
	for _, port := range m.Inputs {
		slots := make([]int32, len(port.Units))
		for i, u := range port.Units {
			slots[i] = p.Slot[u]
		}
		idx.RootSlots = append(idx.RootSlots, slots)
	}
	for _, fb := range m.Feedback {
		idx.RootSlots = append(idx.RootSlots, []int32{p.Slot[fb.ToPI]})
	}
	idx.ClusterRoots = make([][]int32, len(meta.Clusters))
	for ci := range meta.Clusters {
		for _, ref := range meta.Clusters[ci].Roots {
			ri := ref.Index
			if ref.Kind == RootFF {
				ri += int32(len(m.Inputs))
			}
			if ri < 0 || int(ri) >= idx.NumRoots {
				return nil, fmt.Errorf("plan: cluster %d root %v out of range", ci, ref)
			}
			idx.ClusterRoots[ci] = append(idx.ClusterRoots[ci], ri)
		}
	}

	// Cut every row group along cluster boundaries.
	for li := range p.Layers {
		l := &p.Layers[li]
		rc := meta.RowCluster[li]
		segs := make([][]ActivitySegment, len(l.Groups))
		for gi := range l.Groups {
			g := &l.Groups[gi]
			cut, err := cutGroup(g, rc, len(meta.Clusters))
			if err != nil {
				return nil, fmt.Errorf("plan: layer %d group %d: %w", li, gi, err)
			}
			segs[gi] = cut
		}
		idx.Segments[li] = segs
	}
	return idx, nil
}

// cutGroup partitions one row group by cluster, preserving row order
// within each segment. The common case — all rows in one cluster —
// aliases the group's slices instead of copying.
func cutGroup(g *RowGroup, rowCluster []int32, numClusters int) ([]ActivitySegment, error) {
	if len(g.Rows) == 0 {
		return nil, nil
	}
	uniform := true
	for _, r := range g.Rows {
		if int(r) >= len(rowCluster) {
			return nil, fmt.Errorf("row %d has no cluster (metadata covers %d rows)", r, len(rowCluster))
		}
		ci := rowCluster[r]
		if ci < 0 || int(ci) >= numClusters {
			return nil, fmt.Errorf("row %d cluster %d out of range", r, ci)
		}
		if ci != rowCluster[g.Rows[0]] {
			uniform = false
		}
	}
	if uniform {
		return []ActivitySegment{{Cluster: rowCluster[g.Rows[0]], Rows: g.Rows, Tables: g.Tables}}, nil
	}
	segOf := make(map[int32]int, 4)
	var segs []ActivitySegment
	for i, r := range g.Rows {
		ci := rowCluster[r]
		si, ok := segOf[ci]
		if !ok {
			si = len(segs)
			segOf[ci] = si
			segs = append(segs, ActivitySegment{Cluster: ci})
		}
		segs[si].Rows = append(segs[si].Rows, r)
		if g.Tables != nil {
			segs[si].Tables = append(segs[si].Tables, g.Tables[i])
		}
	}
	return segs, nil
}
