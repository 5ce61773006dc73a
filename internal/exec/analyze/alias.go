package analyze

import (
	"fmt"

	"c2nn/internal/exec/plan"
	"c2nn/internal/irlint/diag"
)

// VerifyAliasing is the arena aliasing and liveness proof: a symbolic
// forward execution of the plan that re-derives every slot's occupancy
// independently of the liveness analysis that placed the blocks.
//
// The sweep tracks writer[s] — the network unit whose activation slot s
// currently holds. The const+PI block seeds it; each layer first checks
// that every operand slot still holds the unit the model says the row
// reads (PA001: a mismatch means the producing block was recycled too
// early, or two units were assigned one slot while both live), then
// writes its output block, checking that no slot it claims still holds
// a unit some later layer will read or a pinned port/feedback unit
// (PA002). After the last layer, every output-port and feedback unit
// must still be resident in its mapped slot (PA003) — the property the
// engine's Peek and LatchFeedback depend on.
//
// It is the one static proof of arena reuse. Reasoning over individual
// slots and the actual operand lists, it catches whole-block overlaps
// (a block placed on the const+PI block or on a live block, with or
// without reuse) as well as corruptions no block-extent check can see:
// a single rewritten column, a slot table edit, a truncated liveness
// range that happens not to move block extents. The run-time
// counterpart is plan.BuildActivityIndex's slot-injectivity refusal.
func VerifyAliasing(p *plan.Plan) []diag.Diagnostic {
	var ds []diag.Diagnostic
	net := p.Model.Net
	n := len(p.Layers)
	if n != len(net.Layers) || len(net.SegStart) != n || len(p.Slot) != net.TotalUnits {
		ds = append(ds, RuleAliasRead.New("plan",
			"shape mismatch: %d plan layers, %d network layers, %d slots for %d units",
			n, len(net.Layers), len(p.Slot), net.TotalUnits))
		return ds
	}
	piUnits := int32(1 + net.NumPIs)
	arena := int32(p.ArenaUnits)

	// Independent liveness: the last layer reading each unit, and the
	// pinned units the engine addresses between or after passes.
	lastRead := make([]int, net.TotalUnits)
	for u := range lastRead {
		lastRead[u] = -1
	}
	for li := range net.Layers {
		for _, u := range net.Layers[li].W.Col {
			if li > lastRead[u] {
				lastRead[u] = li
			}
		}
	}
	pinned := make([]bool, net.TotalUnits)
	pin := func(u int32) {
		if u >= 0 && int(u) < len(pinned) {
			pinned[u] = true
		}
	}
	for u := int32(0); u < piUnits && int(u) < len(pinned); u++ {
		pinned[u] = true
	}
	for _, pm := range p.Model.Outputs {
		for _, u := range pm.Units {
			pin(u)
		}
	}
	for _, fb := range p.Model.Feedback {
		pin(fb.FromUnit)
		pin(fb.ToPI)
	}

	// Seed occupancy with the const+PI block.
	writer := make([]int32, arena)
	for s := range writer {
		writer[s] = -1
	}
	for u := int32(0); u < piUnits; u++ {
		s := p.Slot[u]
		if s < 0 || s >= arena {
			ds = append(ds, RuleAliasRead.New(fmt.Sprintf("unit %d", u),
				"PI-block slot %d outside arena of %d rows", s, arena))
			continue
		}
		if w := writer[s]; w >= 0 {
			ds = append(ds, RuleAliasRead.New(fmt.Sprintf("unit %d", u),
				"PI-block units %d and %d share slot %d", w, u, s))
			continue
		}
		writer[s] = u
	}

	for li := 0; li < n; li++ {
		pl := &p.Layers[li]
		mw := net.Layers[li].W
		loc := fmt.Sprintf("layer %d", li)
		if len(pl.WInt.Col) != len(mw.Col) || pl.WInt.Rows != mw.Rows {
			ds = append(ds, RuleAliasRead.New(loc,
				"lowered matrix is %d rows / %d entries, model has %d / %d",
				pl.WInt.Rows, len(pl.WInt.Col), mw.Rows, len(mw.Col)))
			continue
		}

		// Reads: every operand slot must hold exactly the unit the
		// model row reads. One diagnostic per layer keeps a single
		// corrupted block from flooding the report.
		for r := 0; r < mw.Rows; r++ {
			bad := false
			for q := mw.RowPtr[r]; q < mw.RowPtr[r+1]; q++ {
				s, u := pl.WInt.Col[q], mw.Col[q]
				if s < 0 || s >= arena {
					ds = append(ds, RuleAliasRead.New(loc,
						"row %d operand slot %d outside arena of %d rows", r, s, arena))
					bad = true
					break
				}
				if writer[s] != u {
					if writer[s] < 0 {
						ds = append(ds, RuleAliasRead.New(loc,
							"row %d reads unit %d from slot %d, which holds no live activation (recycled before last use)",
							r, u, s))
					} else {
						ds = append(ds, RuleAliasRead.New(loc,
							"row %d reads unit %d from slot %d, which holds unit %d (aliased live activations)",
							r, u, s, writer[s]))
					}
					bad = true
					break
				}
			}
			if bad {
				r = mw.Rows // stop scanning this layer's rows
			}
		}

		// Writes: claiming a slot whose occupant is still needed — by a
		// later reader or by the engine's port/feedback addressing — is
		// premature reuse.
		seg := net.SegStart[li]
		clobbered := false
		for r := int32(0); r < int32(mw.Rows); r++ {
			s := pl.OutSlot + r
			if s < 0 || s >= arena {
				if !clobbered {
					ds = append(ds, RuleAliasClobber.New(loc,
						"output block [%d,%d) outside arena of %d rows",
						pl.OutSlot, pl.OutSlot+int32(mw.Rows), arena))
					clobbered = true
				}
				continue
			}
			occ := writer[s]
			if occ >= 0 && occ != seg+r && !clobbered {
				if pinned[occ] || lastRead[occ] >= li {
					ds = append(ds, RuleAliasClobber.New(loc,
						"write to slot %d clobbers unit %d, still live (last read layer %d, pinned %v)",
						s, occ, lastRead[occ], pinned[occ]))
					clobbered = true
				}
			}
			writer[s] = seg + r
		}
	}

	// Residence: the engine peeks outputs and latches feedback through
	// Slot after the pass; those units must have survived it.
	checkResident := func(u int32, what string) {
		if u < 0 || int(u) >= len(p.Slot) {
			ds = append(ds, RuleAliasPinned.New(what, "unit %d outside the network", u))
			return
		}
		s := p.Slot[u]
		if s < 0 || s >= arena || writer[s] != u {
			held := int32(-1)
			if s >= 0 && s < arena {
				held = writer[s]
			}
			ds = append(ds, RuleAliasPinned.New(what,
				"unit %d mapped to slot %d, but after the pass the slot holds unit %d",
				u, s, held))
		}
	}
	for _, pm := range p.Model.Outputs {
		for bi, u := range pm.Units {
			checkResident(u, fmt.Sprintf("output %s[%d]", pm.Name, bi))
		}
	}
	for fi, fb := range p.Model.Feedback {
		checkResident(fb.FromUnit, fmt.Sprintf("feedback %d D", fi))
		checkResident(fb.ToPI, fmt.Sprintf("feedback %d Q", fi))
	}
	return ds
}
