package analyze

import (
	"fmt"
	"sort"
	"strings"

	"c2nn/internal/exec/plan"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/nn"
)

// Analyze-stage lint rules (PA···): the verdicts of the static plan
// analysis, covering the arena aliasing proof (PA001–PA003), the
// cluster metadata invariants (PA004–PA005), degenerate structure
// (PA006–PA007) and the run summary (PA008).
var (
	// RuleAliasRead fires when the symbolic occupancy sweep finds a
	// kernel operand whose slot no longer holds (or never held) the
	// unit the model row reads.
	RuleAliasRead = diag.Register(diag.Rule{
		ID: "PA001", Stage: diag.StageAnalyze, Severity: diag.Error,
		Summary: "kernel reads a stale or aliased arena slot"})
	// RuleAliasClobber fires when a layer's output block claims a slot
	// whose occupant is still live — premature arena reuse.
	RuleAliasClobber = diag.Register(diag.Rule{
		ID: "PA002", Stage: diag.StageAnalyze, Severity: diag.Error,
		Summary: "live activation clobbered by premature arena reuse"})
	// RuleAliasPinned fires when an output-port or feedback unit is not
	// resident in its mapped slot after the full forward pass.
	RuleAliasPinned = diag.Register(diag.Rule{
		ID: "PA003", Stage: diag.StageAnalyze, Severity: diag.Error,
		Summary: "pinned port/feedback unit not resident after the pass"})
	// RuleClusterShape fires when the cluster metadata disagrees with
	// the plan it annotates: wrong table sizes, rows outside their
	// layer, back-pointers that don't round-trip, unsorted layout.
	RuleClusterShape = diag.Register(diag.Rule{
		ID: "PA004", Stage: diag.StageAnalyze, Severity: diag.Error,
		Summary: "cluster metadata inconsistent with the plan"})
	// RuleClusterEdges fires when cleanliness propagation is unsound: a
	// cluster reads a root or an earlier cluster's rows without the
	// corresponding Roots/Preds edge, or an edge points forward.
	RuleClusterEdges = diag.Register(diag.Rule{
		ID: "PA005", Stage: diag.StageAnalyze, Severity: diag.Error,
		Summary: "cluster dependency edges broken or incomplete"})
	// RuleConstRow fires on a threshold row whose output no input
	// assignment can change — wasted work on every pass, but real
	// synthesized designs do carry a few (tied-off status bits), so it
	// is an audit observation rather than a warning.
	RuleConstRow = diag.Register(diag.Rule{
		ID: "PA006", Stage: diag.StageAnalyze, Severity: diag.Info,
		Summary: "statically-constant threshold row"})
	// RuleDeadCluster fires on a cluster none of whose rows reach a
	// later layer, an output port or a feedback latch — legitimate in
	// designs with intentionally unobserved logic, hence Info.
	RuleDeadCluster = diag.Register(diag.Rule{
		ID: "PA007", Stage: diag.StageAnalyze, Severity: diag.Info,
		Summary: "dead cluster: rows feed no later layer, output or latch"})
	// RuleSummary is the one-line analysis summary (always emitted).
	RuleSummary = diag.Register(diag.Rule{
		ID: "PA008", Stage: diag.StageAnalyze, Severity: diag.Info,
		Summary: "static analysis summary"})
)

// lintClusters verifies the cluster metadata against the plan: shape
// and round-tripping (PA004), then edge soundness — every cross-layer
// read and every root read must be covered by a Preds/Roots entry
// (PA005) — and finally dead-cluster detection (PA007).
func lintClusters(p *plan.Plan, meta *plan.ClusterMeta) []diag.Diagnostic {
	var ds []diag.Diagnostic
	if meta == nil {
		return nil
	}
	net := p.Model.Net
	n := len(p.Layers)
	if len(meta.RowCluster) != n {
		ds = append(ds, RuleClusterShape.New("meta",
			"row-cluster table covers %d layers, plan has %d", len(meta.RowCluster), n))
		return ds
	}

	// Shape: clusters sorted by layer, rows ascending and in range,
	// back-pointers round-trip.
	prevLayer := int32(-1)
	for ci := range meta.Clusters {
		c := &meta.Clusters[ci]
		loc := fmt.Sprintf("cluster %d", ci)
		if c.Layer < prevLayer {
			ds = append(ds, RuleClusterShape.New(loc,
				"layer %d out of order after layer %d", c.Layer, prevLayer))
		}
		prevLayer = c.Layer
		if c.Layer < 0 || int(c.Layer) >= n {
			ds = append(ds, RuleClusterShape.New(loc,
				"layer %d outside plan of %d layers", c.Layer, n))
			continue
		}
		if c.Component < 0 || c.Component >= meta.NumComponents {
			ds = append(ds, RuleClusterShape.New(loc,
				"component %d outside %d components", c.Component, meta.NumComponents))
		}
		rows := p.Layers[c.Layer].WInt.Rows
		last := int32(-1)
		for _, r := range c.Rows {
			if r <= last || int(r) >= rows {
				ds = append(ds, RuleClusterShape.New(loc,
					"row list not ascending within layer %d (%d rows): ... %d, %d",
					c.Layer, rows, last, r))
				break
			}
			last = r
			if meta.RowCluster[c.Layer][r] != int32(ci) {
				ds = append(ds, RuleClusterShape.New(loc,
					"layer %d row %d back-pointer names cluster %d",
					c.Layer, r, meta.RowCluster[c.Layer][r]))
				break
			}
		}
	}
	for li := 0; li < n; li++ {
		if len(meta.RowCluster[li]) != p.Layers[li].WInt.Rows {
			ds = append(ds, RuleClusterShape.New(fmt.Sprintf("layer %d", li),
				"row-cluster table covers %d rows, layer has %d",
				len(meta.RowCluster[li]), p.Layers[li].WInt.Rows))
			continue
		}
		for r, ci := range meta.RowCluster[li] {
			if ci < 0 || int(ci) >= len(meta.Clusters) {
				ds = append(ds, RuleClusterShape.New(fmt.Sprintf("layer %d", li),
					"row %d names cluster %d of %d", r, ci, len(meta.Clusters)))
				break
			}
			if meta.Clusters[ci].Layer != int32(li) {
				ds = append(ds, RuleClusterShape.New(fmt.Sprintf("layer %d", li),
					"row %d names cluster %d, which belongs to layer %d",
					r, ci, meta.Clusters[ci].Layer))
				break
			}
		}
	}
	if len(ds) > 0 {
		return ds // edge checks would chase broken indices
	}

	// Edge soundness from the model's unit-space reads.
	piUnits := int32(1 + net.NumPIs)
	rootIdx := rootIndex(p.Model)
	for li := range net.Layers {
		w := net.Layers[li].W
		bad := false
		for r := 0; r < w.Rows && !bad; r++ {
			ci := meta.RowCluster[li][r]
			c := &meta.Clusters[ci]
			for q := w.RowPtr[r]; q < w.RowPtr[r+1]; q++ {
				u := w.Col[q]
				switch {
				case u == nn.ConstUnit:
				case u < piUnits:
					ref, ok := rootIdx[u]
					if !ok {
						continue // unreferenced PI bit with no port — rootless
					}
					if !hasRoot(c.Roots, ref) {
						ds = append(ds, RuleClusterEdges.New(fmt.Sprintf("cluster %d", ci),
							"layer %d row %d reads %s root %d, missing from Roots",
							li, r, ref.Kind, ref.Index))
						bad = true
					}
				default:
					pl, pr := plan.ProducerOf(net, u)
					if pl < 0 || pl >= li {
						continue
					}
					pc := meta.RowCluster[pl][pr]
					if !hasPred(c.Preds, pc) {
						ds = append(ds, RuleClusterEdges.New(fmt.Sprintf("cluster %d", ci),
							"layer %d row %d reads layer %d row %d (cluster %d), missing from Preds",
							li, r, pl, pr, pc))
						bad = true
					}
				}
				if bad {
					break
				}
			}
		}
	}
	for ci := range meta.Clusters {
		for _, pred := range meta.Clusters[ci].Preds {
			if pred < 0 || int(pred) >= len(meta.Clusters) ||
				meta.Clusters[pred].Layer >= meta.Clusters[ci].Layer {
				ds = append(ds, RuleClusterEdges.New(fmt.Sprintf("cluster %d", ci),
					"predecessor edge %d does not point to an earlier layer", pred))
				break
			}
		}
	}

	// Dead clusters: rows whose units nothing downstream observes.
	readLater := make([]bool, net.TotalUnits)
	for li := range net.Layers {
		for _, u := range net.Layers[li].W.Col {
			readLater[u] = true
		}
	}
	observed := make([]bool, net.TotalUnits)
	mark := func(u int32) {
		if u >= 0 && int(u) < len(observed) {
			observed[u] = true
		}
	}
	for _, pm := range p.Model.Outputs {
		for _, u := range pm.Units {
			mark(u)
		}
	}
	for _, fb := range p.Model.Feedback {
		mark(fb.FromUnit)
	}
	for ci := range meta.Clusters {
		c := &meta.Clusters[ci]
		seg := net.SegStart[c.Layer]
		dead := len(c.Rows) > 0
		for _, r := range c.Rows {
			u := seg + r
			if readLater[u] || observed[u] {
				dead = false
				break
			}
		}
		if dead {
			ds = append(ds, RuleDeadCluster.New(fmt.Sprintf("cluster %d", ci),
				"layer %d component %d: %d row(s) feed no later layer, output or latch",
				c.Layer, c.Component, len(c.Rows)))
		}
	}
	return ds
}

// rootIndex maps each PI-block unit to its sequential root, FF Q bits
// taking precedence over aliased ports (mirror of the numbering in
// plan.ComputeClusters).
func rootIndex(m *nn.Model) map[int32]plan.RootRef {
	idx := make(map[int32]plan.RootRef)
	piUnits := int32(1 + m.Net.NumPIs)
	for pi, port := range m.Inputs {
		for _, u := range port.Units {
			if u > 0 && u < piUnits {
				idx[u] = plan.RootRef{Kind: plan.RootPort, Index: int32(pi)}
			}
		}
	}
	for fi, fb := range m.Feedback {
		if fb.ToPI > 0 && fb.ToPI < piUnits {
			idx[fb.ToPI] = plan.RootRef{Kind: plan.RootFF, Index: int32(fi)}
		}
	}
	return idx
}

func hasRoot(roots []plan.RootRef, ref plan.RootRef) bool {
	for _, r := range roots {
		if r == ref {
			return true
		}
	}
	return false
}

func hasPred(preds []int32, pc int32) bool {
	i := sort.Search(len(preds), func(i int) bool { return preds[i] >= pc })
	return i < len(preds) && preds[i] == pc
}

// lintConstRows reports every statically-constant threshold row
// (PA006): the rows lowering grouped as const0/const1 (EX007 proves the
// groups match the weights). Their output is fixed no matter the
// stimulus, so the compiler upstream left dead weight in the plan.
func lintConstRows(p *plan.Plan) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for li := range p.Layers {
		l := &p.Layers[li]
		if l.Linear() {
			continue // constant-0 linear rows are padding, not wasted compares
		}
		for _, g := range l.Groups {
			if g.Kind != plan.KConst0 && g.Kind != plan.KConst1 {
				continue
			}
			for _, r := range g.Rows {
				ds = append(ds, RuleConstRow.New(fmt.Sprintf("layer %d", li),
					"row %d output is statically constant", r))
			}
		}
	}
	return ds
}

// summaryInfo emits the PA008 one-line run summary.
func summaryInfo(p *plan.Plan, res *Result) []diag.Diagnostic {
	mix := p.KernelMix()
	var kinds []string
	for k := plan.KernelKind(0); int(k) < plan.NumKernelKinds; k++ {
		if n := mix[k.String()]; n > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
	}
	meta := p.Clusters
	return []diag.Diagnostic{RuleSummary.New("plan",
		"%d components, %d clusters over %d layers; %d rows (%s); arena %d/%d units; %d packed word ops/word",
		meta.NumComponents, len(meta.Clusters), len(p.Layers),
		res.Cost.Total.Rows, strings.Join(kinds, " "),
		p.ArenaUnits, p.Model.Net.TotalUnits, res.Cost.Total.PackedWordOps)}
}
