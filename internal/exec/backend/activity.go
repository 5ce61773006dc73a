package backend

import (
	"sync/atomic"

	"c2nn/internal/exec/plan"
	"c2nn/internal/obs"
)

// activity is the driver's run-time state of activity-driven
// execution. The substrate supplies the one piece that depends on the
// native element type — rootToggled, which diffs a root's current
// activation rows against a previous-pass snapshot and refreshes the
// snapshot — and this code does the rest: dirtiness propagation along
// the cluster graph at the start of every Forward, and per-group row
// subsetting so only rows of dirty clusters are dispatched.
//
// The skip pass is scoped to Forward: begin sets the pass flag after
// propagation and end clears it, so RunLayer called directly (the
// fault-overlay loop in simengine, unit tests) always dispatches every
// row. Skipping is therefore never active while an overlay is forcing
// lanes — a clean-skip can never hide an injected fault.
type activity struct {
	enabled bool
	invalid bool // next pass treats every cluster dirty
	pass    bool // a skip pass is in flight (Forward only)

	idx  *plan.ActivityIndex
	meta *plan.ClusterMeta
	// rootOff[r] is root r's flattened unit offset in the substrate's
	// snapshot buffer; units is the buffer's total unit count.
	rootOff []int
	units   int

	rootDirty []bool
	dirty     []bool
	// rows is per-(layer,group) gather scratch, reused across passes so
	// partial dispatches allocate only on first use.
	rows [][][]int32

	// dirtyN and skippedN are the lifetime cluster-dispatch tallies,
	// registered as exec.cluster.dirty / .skipped when traced; they are
	// atomic, so samplers and StatsSnapshot read them mid-pass.
	dirtyN, skippedN *obs.Counter
	// rootTog[r] counts passes on which root r actually toggled — the
	// busiest-root signal behind the telemetry layer's toggle windows.
	// clusterDirty[c] counts passes on which cluster c was dispatched
	// dirty — what prices a run's dirty cost (analyze.DirtyCostFraction).
	rootTog      []atomic.Int64
	clusterDirty []atomic.Int64
}

// enable builds the dispatch state over the plan's activity index,
// constructing (and attaching) the index when the plan was compiled
// without Options.Activity.
func (a *activity) enable(p *plan.Plan, tr *obs.Trace) error {
	idx := p.Activity
	if idx == nil {
		var err error
		idx, err = plan.BuildActivityIndex(p)
		if err != nil {
			return err
		}
		p.Activity = idx
	}
	a.idx, a.meta = idx, p.Clusters
	a.rootOff = make([]int, len(idx.RootSlots))
	for r, slots := range idx.RootSlots {
		a.rootOff[r] = a.units
		a.units += len(slots)
	}
	a.rootDirty = make([]bool, idx.NumRoots)
	a.rootTog = make([]atomic.Int64, idx.NumRoots)
	a.dirty = make([]bool, len(a.meta.Clusters))
	a.clusterDirty = make([]atomic.Int64, len(a.meta.Clusters))
	a.rows = make([][][]int32, len(p.Layers))
	for li := range p.Layers {
		a.rows[li] = make([][]int32, len(p.Layers[li].Groups))
	}
	if tr != nil {
		a.dirtyN, a.skippedN = tr.Counter("exec.cluster.dirty"), tr.Counter("exec.cluster.skipped")
	} else {
		a.dirtyN, a.skippedN = new(obs.Counter), new(obs.Counter)
	}
	a.invalid = true
	a.enabled = true
	return nil
}

// begin opens a skip pass: the substrate diffs every root's rows
// against its snapshot (and refreshes it), then dirtiness
// propagates forward through the cluster graph — clusters are sorted
// by layer, so every predecessor is decided before its readers. An
// invalidation (first pass, Reset, PokeUnit, overlay churn) forces
// every root dirty while still refreshing the snapshot. No-op when
// activity is disabled.
func (a *activity) begin(sub substrate) {
	if !a.enabled {
		return
	}
	inval := a.invalid
	a.invalid = false
	for r := range a.rootDirty {
		t := sub.rootToggled(a.idx.RootSlots[r], a.rootOff[r])
		a.rootDirty[r] = t || inval
		if t {
			a.rootTog[r].Add(1)
		}
	}
	var nd int64
	for ci := range a.meta.Clusters {
		// An invalidated pass dirties every cluster directly: clusters
		// rooted only at constants have no roots and no predecessors, so
		// root propagation alone would never recompute them — not even on
		// the first pass ever.
		d := inval
		for _, ri := range a.idx.ClusterRoots[ci] {
			if d {
				break
			}
			if a.rootDirty[ri] {
				d = true
			}
		}
		if !d {
			for _, pc := range a.meta.Clusters[ci].Preds {
				if a.dirty[pc] {
					d = true
					break
				}
			}
		}
		a.dirty[ci] = d
		if d {
			nd++
			a.clusterDirty[ci].Add(1)
		}
	}
	a.dirtyN.Add(nd)
	a.skippedN.Add(int64(len(a.dirty)) - nd)
	a.pass = true
}

// end closes the skip pass; RunLayer dispatches in full again.
func (a *activity) end() { a.pass = false }

// rowsFor returns the rows of one group to dispatch: the full group
// outside a skip pass, the dirty subset during one. Empty rows mean the
// whole group is clean — skip the dispatch entirely, the output slots
// still hold last pass's values.
func (a *activity) rowsFor(li, gi int, g *plan.RowGroup) []int32 {
	if !a.pass {
		return g.Rows
	}
	segs := a.idx.Segments[li][gi]
	nd := 0
	for si := range segs {
		if a.dirty[segs[si].Cluster] {
			nd++
		}
	}
	switch nd {
	case len(segs):
		return g.Rows
	case 0:
		return nil
	}
	rows := a.rows[li][gi][:0]
	for si := range segs {
		if a.dirty[segs[si].Cluster] {
			rows = append(rows, segs[si].Rows...)
		}
	}
	a.rows[li][gi] = rows
	return rows
}

// loadCounts copies atomic tallies into dst (nil for no tallies).
func loadCounts(src []atomic.Int64, dst []int64) []int64 {
	if src == nil {
		return nil
	}
	if cap(dst) < len(src) {
		dst = make([]int64, len(src))
	}
	dst = dst[:len(src)]
	for i := range src {
		dst[i] = src[i].Load()
	}
	return dst
}
