package plan

import (
	"math"
	"strconv"

	"c2nn/internal/irlint/diag"
)

// Plan-stage lint rules (EX···): the static verifier of the lowered
// execution plan, cross-checking it against the model it was compiled
// from (the irlint counterpart of the differential backend tests).
var (
	// RuleEXSlot fires when the unit→slot map or a layer block falls
	// outside the arena, the slot table has the wrong length, or a
	// layer's output block disagrees with the slot map.
	RuleEXSlot = diag.Register(diag.Rule{
		ID: "EX001", Stage: diag.StagePlan, Severity: diag.Error,
		Summary: "arena slot map or activation block inconsistent"})
	// RuleEXKernel fires when a layer's threshold vectors disagree with
	// the model layer it lowers — a threshold layer lowered without
	// Thresh or Bias, a linear layer carrying either — or the plan and
	// the network differ in layer count.
	RuleEXKernel = diag.Register(diag.Rule{
		ID: "EX002", Stage: diag.StagePlan, Severity: diag.Error,
		Summary: "layer linearity disagrees with model"})
	// RuleEXThresh fires when a fused integer threshold disagrees with
	// the float bias it was folded from.
	RuleEXThresh = diag.Register(diag.Rule{
		ID: "EX004", Stage: diag.StagePlan, Severity: diag.Error,
		Summary: "fused threshold disagrees with bias"})
	// RuleEXMirror fires when the int32 weight mirror differs from the
	// float weights in structure or value.
	RuleEXMirror = diag.Register(diag.Rule{
		ID: "EX005", Stage: diag.StagePlan, Severity: diag.Error,
		Summary: "integer weight mirror disagrees with float weights"})
	// RuleEXGroups fires when a layer's row groups do not partition its
	// rows exactly once in ascending order, or reference rows out of
	// range.
	RuleEXGroups = diag.Register(diag.Rule{
		ID: "EX006", Stage: diag.StagePlan, Severity: diag.Error,
		Summary: "kernel row groups do not partition the layer"})
	// RuleEXKernelSem fires when a specialized kernel disagrees with the
	// row it lowers: the group kind differs from re-deriving the row's
	// kind.
	RuleEXKernelSem = diag.Register(diag.Rule{
		ID: "EX007", Stage: diag.StagePlan, Severity: diag.Error,
		Summary: "specialized kernel disagrees with its source row"})
)

// Lint checks every structural invariant of the plan against its
// model, collecting all violations.
func (p *Plan) Lint() []diag.Diagnostic {
	var ds []diag.Diagnostic
	loc := func(i int) string { return "layer " + strconv.Itoa(i) }
	net := p.Model.Net
	arena := int32(p.ArenaUnits)

	if len(p.Slot) != net.TotalUnits {
		ds = append(ds, RuleEXSlot.New("plan",
			"slot table covers %d units, network has %d", len(p.Slot), net.TotalUnits))
	}
	for u, s := range p.Slot {
		if s < 0 || s >= arena {
			ds = append(ds, RuleEXSlot.New("unit "+strconv.Itoa(u),
				"slot %d outside arena of %d rows", s, arena))
		}
	}
	if len(p.Layers) != len(net.Layers) {
		ds = append(ds, RuleEXKernel.New("plan",
			"%d plan layers for %d network layers", len(p.Layers), len(net.Layers)))
		return ds
	}

	for li := range p.Layers {
		pl := &p.Layers[li]
		ml := &net.Layers[li]
		if pl.W == nil || pl.WInt == nil {
			ds = append(ds, RuleEXMirror.New(loc(li), "layer missing lowered matrices"))
			continue
		}
		rows := int32(pl.W.Rows)
		if pl.OutSlot < 0 || pl.OutSlot+rows > arena {
			ds = append(ds, RuleEXSlot.New(loc(li),
				"output block [%d,%d) outside arena of %d rows", pl.OutSlot, pl.OutSlot+rows, arena))
		}
		for i, c := range pl.W.Col {
			if c < 0 || c >= arena {
				ds = append(ds, RuleEXSlot.New(loc(li),
					"entry %d column slot %d outside arena of %d rows", i, c, arena))
				break
			}
		}
		if li < len(net.SegStart) {
			seg := int(net.SegStart[li])
			for r := 0; r < pl.W.Rows && seg+r < len(p.Slot); r++ {
				if p.Slot[seg+r] != pl.OutSlot+int32(r) {
					ds = append(ds, RuleEXSlot.New(loc(li),
						"unit %d mapped to slot %d but its layer block places it at %d",
						seg+r, p.Slot[seg+r], pl.OutSlot+int32(r)))
					break
				}
			}
		}

		// Threshold presence must agree with the model layer: it is the
		// one bit that tells kernels whether to compare.
		switch {
		case ml.Threshold && (pl.Thresh == nil || pl.Bias == nil):
			ds = append(ds, RuleEXKernel.New(loc(li), "threshold layer lowered without its threshold or bias vector"))
		case !ml.Threshold && (pl.Thresh != nil || pl.Bias != nil):
			ds = append(ds, RuleEXKernel.New(loc(li), "linear layer carries a threshold vector"))
		}

		// Threshold fusion.
		if !pl.Linear() {
			if len(pl.Thresh) != pl.W.Rows {
				ds = append(ds, RuleEXThresh.New(loc(li),
					"threshold vector length %d for %d rows", len(pl.Thresh), pl.W.Rows))
			} else {
				for r, b := range ml.Bias {
					if r < len(pl.Thresh) && int32(math.Floor(float64(b))) != pl.Thresh[r] {
						ds = append(ds, RuleEXThresh.New(loc(li),
							"row %d threshold %d, bias %v", r, pl.Thresh[r], b))
					}
				}
			}
		}

		ds = append(ds, lintGroups(loc(li), pl)...)

		// Integer mirror agreement (structure is shared with W by
		// construction, but a hand-built or corrupted plan may not).
		if pl.WInt.Rows != pl.W.Rows || len(pl.WInt.Val) != len(pl.W.Val) {
			ds = append(ds, RuleEXMirror.New(loc(li),
				"mirror is %dx%d entries, float matrix %dx%d",
				pl.WInt.Rows, len(pl.WInt.Val), pl.W.Rows, len(pl.W.Val)))
		} else {
			for i := range pl.W.Val {
				if float32(pl.WInt.Val[i]) != pl.W.Val[i] || pl.WInt.Col[i] != pl.W.Col[i] {
					ds = append(ds, RuleEXMirror.New(loc(li),
						"mirror entry %d is %d@%d, float %v@%d",
						i, pl.WInt.Val[i], pl.WInt.Col[i], pl.W.Val[i], pl.W.Col[i]))
					break
				}
			}
		}
	}

	return ds
}

// lintGroups verifies the layer's kernel IR: the row groups must cover
// every row exactly once in ascending order with in-range rows (EX006),
// and each group's kernel must agree with re-deriving the row's kind
// from the weights and fused threshold (EX007) — the static proof that
// the specialized dispatch computes the same function as the generic
// path.
func lintGroups(loc string, pl *Layer) []diag.Diagnostic {
	var ds []diag.Diagnostic
	rows := pl.W.Rows
	if len(pl.Groups) == 0 {
		if rows > 0 {
			ds = append(ds, RuleEXGroups.New(loc,
				"layer with %d rows carries no kernel row groups", rows))
		}
		return ds
	}
	covered := make([]bool, rows)
	sound := true
	for gi := range pl.Groups {
		g := &pl.Groups[gi]
		prev := int32(-1)
		for _, r := range g.Rows {
			if r < 0 || int(r) >= rows {
				ds = append(ds, RuleEXGroups.New(loc,
					"group %d (%s) references row %d outside layer of %d rows", gi, g.Kind, r, rows))
				sound = false
				continue
			}
			if r <= prev {
				ds = append(ds, RuleEXGroups.New(loc,
					"group %d (%s) rows not strictly ascending at row %d", gi, g.Kind, r))
				sound = false
			}
			prev = r
			if covered[r] {
				ds = append(ds, RuleEXGroups.New(loc,
					"row %d covered by more than one group", r))
				sound = false
			}
			covered[r] = true
		}
	}
	for r, c := range covered {
		if !c {
			ds = append(ds, RuleEXGroups.New(loc, "row %d covered by no group", r))
			sound = false
		}
	}
	if !sound {
		return ds // kind re-derivation needs a well-formed partition
	}
	for gi := range pl.Groups {
		g := &pl.Groups[gi]
		for _, r := range g.Rows {
			if kind := KindOfRow(pl, int(r)); kind != g.Kind {
				ds = append(ds, RuleEXKernelSem.New(loc,
					"row %d grouped as %s, re-derivation says %s", r, g.Kind, kind))
			}
		}
	}
	return ds
}
