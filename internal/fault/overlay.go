package fault

import (
	"fmt"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
)

// forceOp forces one LUT's term neurons to a fixed input assignment x
// in one lane (static output stuck-at forcing).
type forceOp struct {
	lane int
	lut  int32
	x    uint32
}

// pinOp forces one LUT to behave as if input pin `pin` were stuck at v
// in one lane: the actual pin values are read back at hook time, the
// faulty pin is overridden, and the term neurons are rewritten to the
// resulting assignment.
type pinOp struct {
	lane int
	lut  int32
	pin  int
	v    bool
}

// seuOp flips one flip-flop Q unit in one lane, once per run.
type seuOp struct {
	lane int
	unit int32
}

// Overlay is a compiled per-lane fault configuration implementing
// simengine.Overlay: each batch lane carries at most one fault, lane 0
// stays golden. Install with Engine.WithFaults on an engine created
// with KeepAllActivations.
type Overlay struct {
	model *nn.Model
	g     *lutmap.Graph
	// seuAt is the forward-pass index (0-based, counted per overlay)
	// at which SEU flips fire.
	seuAt int
	pass  int

	// forces and pins are keyed by the plan layer after which they
	// apply (the layer producing the faulted LUT's term neurons).
	forces map[int][]forceOp
	pins   map[int][]pinOp
	seus   []seuOp

	// maxLane tracks the highest lane any op touches.
	maxLane int

	// forces counts unit writes the overlay performs (term rewrites and
	// SEU flips); nil when uninstrumented.
	forceCtr *obs.Counter
}

// Instrument attaches the "fault.forces" counter of the given sink to
// the overlay, counting every unit write it performs (term-neuron
// rewrites and SEU flips). A nil trace detaches.
func (o *Overlay) Instrument(tr *obs.Trace) {
	o.forceCtr = tr.Counter("fault.forces")
}

// NewOverlay prepares an empty overlay for a model built from graph g.
// The model must carry build provenance (models loaded from .c2nn files
// do not). seuAt selects the forward pass on which SEU faults flip;
// values below zero default to 1, letting the first cycle establish
// machine state before the upset.
func NewOverlay(model *nn.Model, g *lutmap.Graph, seuAt int) (*Overlay, error) {
	if model.Trace == nil {
		return nil, fmt.Errorf("fault: model %q has no build trace (loaded from file?); rebuild with nn.Build", model.CircuitName)
	}
	if len(model.Trace.LUTs) != len(g.LUTs) {
		return nil, fmt.Errorf("fault: trace covers %d LUTs, graph has %d", len(model.Trace.LUTs), len(g.LUTs))
	}
	if seuAt < 0 {
		seuAt = 1
	}
	return &Overlay{
		model:  model,
		g:      g,
		seuAt:  seuAt,
		forces: make(map[int][]forceOp),
		pins:   make(map[int][]pinOp),
	}, nil
}

// hookLayer returns the plan layer after which a LUT's term neurons are
// valid and may be rewritten.
func (o *Overlay) hookLayer(lut int) (int, error) {
	tr := o.model.Trace
	lv := tr.LUTs[lut].Level
	if int(lv) >= len(tr.LayerOfLevel) || tr.LayerOfLevel[lv] < 0 {
		return 0, fmt.Errorf("fault: lut %d level %d has no producing layer", lut, lv)
	}
	return int(tr.LayerOfLevel[lv]), nil
}

// AddFault compiles one fault onto one batch lane. Lane 0 is reserved
// for the golden machine by the coverage driver; AddFault itself only
// validates the fault, so the FT lint rules can inspect malformed
// overlays.
func (o *Overlay) AddFault(f Fault, lane int) error {
	if lane < 0 {
		return fmt.Errorf("fault: negative lane %d", lane)
	}
	if lane > o.maxLane {
		o.maxLane = lane
	}
	switch f.Kind {
	case OutSA0, OutSA1:
		if f.LUT < 0 || f.LUT >= len(o.g.LUTs) {
			return fmt.Errorf("fault: %s: no such LUT", f)
		}
		t := o.g.LUTs[f.LUT].Table
		x := -1
		for i := 0; i < t.Size(); i++ {
			if t.Bit(i) == f.StuckVal() {
				x = i
				break
			}
		}
		if x < 0 {
			return fmt.Errorf("fault: %s is unmodelable (constant LUT never outputs %v)", f, f.StuckVal())
		}
		li, err := o.hookLayer(f.LUT)
		if err != nil {
			return err
		}
		o.forces[li] = append(o.forces[li], forceOp{lane: lane, lut: int32(f.LUT), x: uint32(x)})
	case PinSA0, PinSA1:
		if f.LUT < 0 || f.LUT >= len(o.g.LUTs) {
			return fmt.Errorf("fault: %s: no such LUT", f)
		}
		if f.Pin < 0 || f.Pin >= len(o.g.LUTs[f.LUT].Ins) {
			return fmt.Errorf("fault: %s: no such pin", f)
		}
		li, err := o.hookLayer(f.LUT)
		if err != nil {
			return err
		}
		o.pins[li] = append(o.pins[li], pinOp{lane: lane, lut: int32(f.LUT), pin: f.Pin, v: f.StuckVal()})
	case SEU:
		if f.FF < 0 || f.FF >= len(o.model.Feedback) {
			return fmt.Errorf("fault: %s: no such flip-flop", f)
		}
		o.seus = append(o.seus, seuOp{lane: lane, unit: o.model.Feedback[f.FF].ToPI})
	default:
		return fmt.Errorf("fault: unknown kind %d", f.Kind)
	}
	return nil
}

// Apply implements simengine.Overlay: layer -1 fires SEU flips on the
// armed pass; after each plan layer the stuck-at forcings of LUTs whose
// term neurons that layer produced are applied per lane.
func (o *Overlay) Apply(e *simengine.Engine, layer int) {
	if layer < 0 {
		if o.pass == o.seuAt {
			for _, s := range o.seus {
				e.PokeUnit(s.unit, s.lane, !e.PeekUnit(s.unit, s.lane))
			}
			o.forceCtr.Add(int64(len(o.seus)))
		}
		o.pass++
		return
	}
	tr := o.model.Trace
	for _, op := range o.forces[layer] {
		o.forceTerms(e, op.lane, &tr.LUTs[op.lut], op.x)
	}
	for _, op := range o.pins[layer] {
		x := o.readPins(e, op.lane, int(op.lut))
		if op.v {
			x |= 1 << uint(op.pin)
		} else {
			x &^= 1 << uint(op.pin)
		}
		o.forceTerms(e, op.lane, &tr.LUTs[op.lut], x)
	}
}

// forceTerms rewrites a LUT's term neurons in one lane so every reader
// of the LUT's value sees exactly LUT(x): term i fires iff all pins of
// its variable set are 1 under assignment x.
func (o *Overlay) forceTerms(e *simengine.Engine, lane int, lt *nn.LUTTrace, x uint32) {
	for i, tu := range lt.TermUnits {
		m := lt.TermMasks[i]
		e.PokeUnit(tu, lane, x&m == m)
	}
	o.forceCtr.Add(int64(len(lt.TermUnits)))
}

// readPins reconstructs the actual input assignment of a LUT in one
// lane from the current activations: PI pins read their unit directly,
// LUT pins evaluate the driver's exact linear value form.
func (o *Overlay) readPins(e *simengine.Engine, lane int, lut int) uint32 {
	var x uint32
	for p, in := range o.g.LUTs[lut].Ins {
		if o.refValue(e, lane, in) {
			x |= 1 << uint(p)
		}
	}
	return x
}

// refValue evaluates one computation-graph reference in one lane.
func (o *Overlay) refValue(e *simengine.Engine, lane int, ref lutmap.NodeRef) bool {
	if ref.IsPI() {
		return e.PeekUnit(nn.PIUnit(ref.PI()), lane)
	}
	lt := &o.model.Trace.LUTs[ref.LUT()]
	v := lt.Cst
	for i, u := range lt.VUnits {
		if e.PeekUnit(u, lane) {
			v += lt.VCoefs[i]
		}
	}
	return v != 0
}
