package analyze

import (
	"fmt"
	"sort"

	"c2nn/internal/exec/plan"
	"c2nn/internal/simengine"
)

// ErrNoClusters re-exports the typed error NewProbe wraps when an
// engine's plan carries no usable cluster metadata, so callers can
// errors.Is against this package alone.
var ErrNoClusters = plan.ErrNoClusters

// Probe observes the dynamic counterpart of the static clustering: it
// samples the sequential roots (input ports and FF Q bits) of a running
// engine after every clock step, propagates dirtiness through the
// cluster graph exactly as the activity-driven backend will, and
// tallies how many clusters — and how much of the static cost — each
// step would actually have to recompute. The dirty fraction it reports
// is the upper bound on activity-driven speedup for that workload.
//
// Hook it into a testbench with Script.RunOpts:
//
//	pr, _ := analyze.NewProbe(eng)
//	script.RunOpts(eng, testbench.RunOptions{Trace: func(int) error {
//		pr.Sample()
//		return nil
//	}})
//	stats := pr.Stats()
//
// Sampling reads lane 0 only: the testbench drives every lane with the
// same clocking, and root toggles are what matter, not payload values.
type Probe struct {
	eng *simengine.Engine

	// rootUnits[r] are the PI-block units whose lane-0 values make up
	// root r's sampled state (port bits, or the single FF Q bit).
	rootUnits [][]int32
	rootNames []string
	prev      [][]bool
	first     bool
	// gen mirrors the engine's state generation: Reset, PokeUnit and
	// overlay churn advance it, and the probe re-enters the all-dirty
	// first-step state when it observes the change — exactly the
	// backend's invalidation behaviour.
	gen uint64

	// clusterCost[c] is the static packed-word-op price of cluster c.
	clusterCost []int64
	totalCost   int64

	steps      int
	dirtySum   int64 // Σ dirty clusters per step
	dirtyCost  int64 // Σ static cost of dirty clusters per step
	lastDirty  int   // dirty clusters of the most recent sample
	dirty      []bool
	rootDirty  []bool
	toggles    []int64   // per-root toggle tallies (excluding forced all-dirty steps)
	rootOfIdxs [][]int32 // cluster -> root indices (flattened refs)
}

// ActivityStats summarises a probe run.
type ActivityStats struct {
	// Steps is the number of sampled clock steps.
	Steps int `json:"steps"`
	// Clusters is the cluster count of the plan.
	Clusters int `json:"clusters"`
	// AvgDirtyClusters is the mean dirty-cluster count per step.
	AvgDirtyClusters float64 `json:"avg_dirty_clusters"`
	// DirtyFraction is the mean fraction of clusters dirty per step.
	DirtyFraction float64 `json:"dirty_fraction"`
	// DirtyCostFraction weights the dirty fraction by static cluster
	// cost — the fraction of packed word ops activity-driven execution
	// would actually spend.
	DirtyCostFraction float64 `json:"dirty_cost_fraction"`
}

// NewProbe builds an activity probe over the engine's plan. The plan
// must carry cluster metadata (call Run first, or create the engine
// with Options.Activity); a plan without any — hand-built plans
// included — yields an error wrapping ErrNoClusters.
func NewProbe(eng *simengine.Engine) (*Probe, error) {
	p := eng.Plan()
	if p.Clusters == nil || len(p.Clusters.Clusters) == 0 {
		return nil, fmt.Errorf("analyze: %w (run analyze.Run first)", ErrNoClusters)
	}
	meta := p.Clusters
	m := eng.Model()

	pr := &Probe{eng: eng, first: true, gen: eng.StateGeneration()}
	// Root order mirrors plan.ComputeClusters: ports first, then feedback.
	for _, port := range m.Inputs {
		pr.rootUnits = append(pr.rootUnits, port.Units)
		pr.rootNames = append(pr.rootNames, "port "+port.Name)
	}
	for fi, fb := range m.Feedback {
		pr.rootUnits = append(pr.rootUnits, []int32{fb.ToPI})
		pr.rootNames = append(pr.rootNames, fmt.Sprintf("ff[%d] q=%d", fi, fb.ToPI))
	}
	pr.toggles = make([]int64, len(pr.rootUnits))
	pr.prev = make([][]bool, len(pr.rootUnits))
	for r := range pr.prev {
		pr.prev[r] = make([]bool, len(pr.rootUnits[r]))
	}
	pr.rootDirty = make([]bool, len(pr.rootUnits))
	pr.dirty = make([]bool, len(meta.Clusters))

	costs := ClusterCosts(p)
	pr.clusterCost = make([]int64, len(costs))
	for i, cc := range costs {
		pr.clusterCost[i] = cc.PackedWordOps
		pr.totalCost += cc.PackedWordOps
	}
	numPorts := len(m.Inputs)
	pr.rootOfIdxs = make([][]int32, len(meta.Clusters))
	for ci := range meta.Clusters {
		for _, ref := range meta.Clusters[ci].Roots {
			idx := ref.Index
			if ref.Kind == plan.RootFF {
				idx += int32(numPorts)
			}
			pr.rootOfIdxs[ci] = append(pr.rootOfIdxs[ci], idx)
		}
	}
	return pr, nil
}

// Sample reads the roots, diffs against the previous sample and tallies
// the clusters the step dirtied. The first sample counts everything
// dirty (there is no previous state to diff against — exactly the
// backend's first-pass behaviour), and a state-generation advance on
// the engine (Reset, PokeUnit, overlay churn) re-enters that all-dirty
// state: those mutations rewrite values the root diff cannot see.
func (pr *Probe) Sample() {
	if g := pr.eng.StateGeneration(); g != pr.gen {
		pr.gen = g
		pr.first = true
	}
	for r, units := range pr.rootUnits {
		toggled := false
		for i, u := range units {
			v := pr.eng.PeekUnit(u, 0)
			if v != pr.prev[r][i] {
				toggled = true
				pr.prev[r][i] = v
			}
		}
		if toggled && !pr.first {
			pr.toggles[r]++
		}
		pr.rootDirty[r] = toggled || pr.first
	}
	pr.first = false

	meta := pr.eng.Plan().Clusters
	// Forward pass in cluster order (sorted by layer, so predecessors
	// come first).
	var nDirty int
	var costDirty int64
	for ci := range meta.Clusters {
		d := false
		for _, ri := range pr.rootOfIdxs[ci] {
			if pr.rootDirty[ri] {
				d = true
				break
			}
		}
		if !d {
			for _, pc := range meta.Clusters[ci].Preds {
				if pr.dirty[pc] {
					d = true
					break
				}
			}
		}
		pr.dirty[ci] = d
		if d {
			nDirty++
			if ci < len(pr.clusterCost) {
				costDirty += pr.clusterCost[ci]
			}
		}
	}
	pr.steps++
	pr.lastDirty = nDirty
	pr.dirtySum += int64(nDirty)
	pr.dirtyCost += costDirty
}

// LastDirtyClusters reports the dirty-cluster count of the most recent
// Sample — what an activity-enabled backend must have dispatched for
// the matching pass, which makes the probe a skip-decision oracle.
func (pr *Probe) LastDirtyClusters() int { return pr.lastDirty }

// Stats returns the accumulated activity summary.
func (pr *Probe) Stats() ActivityStats {
	meta := pr.eng.Plan().Clusters
	st := ActivityStats{Steps: pr.steps, Clusters: len(meta.Clusters)}
	if pr.steps == 0 {
		return st
	}
	st.AvgDirtyClusters = float64(pr.dirtySum) / float64(pr.steps)
	if st.Clusters > 0 {
		st.DirtyFraction = st.AvgDirtyClusters / float64(st.Clusters)
	}
	if pr.totalCost > 0 {
		st.DirtyCostFraction = float64(pr.dirtyCost) / (float64(pr.totalCost) * float64(pr.steps))
	}
	return st
}

// RootToggle is one root's toggle tally over a probe run.
type RootToggle struct {
	// Name labels the root ("port wr_en", "ff[3] q=17").
	Name string `json:"name"`
	// Toggles counts sampled steps on which the root changed (forced
	// all-dirty steps excluded).
	Toggles int64 `json:"toggles"`
	// Rate is Toggles over the sampled step count.
	Rate float64 `json:"rate"`
}

// RootToggles reports per-root toggle rates, busiest first (ties keep
// probe root order: ports before FFs) — the data behind the `c2nn
// profile` toggle table.
func (pr *Probe) RootToggles() []RootToggle {
	out := make([]RootToggle, len(pr.toggles))
	for r := range pr.toggles {
		out[r] = RootToggle{Name: pr.rootNames[r], Toggles: pr.toggles[r]}
		if pr.steps > 0 {
			out[r].Rate = float64(pr.toggles[r]) / float64(pr.steps)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Toggles > out[j].Toggles })
	return out
}
