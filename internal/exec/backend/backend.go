// Package backend executes a lowered plan (internal/exec/plan) over a
// batch of stimulus lanes. One driver, Backend, owns everything the
// paper's engine does once — the layer walk, the row-partitioned pool
// dispatch, activity skipping and instrumentation — and a substrate
// underneath it owns the activation arena in its native element type
// and the row kernels over it. Three substrates are provided — float32
// (the paper's SpMM formulation) and int32 (exact integer arithmetic),
// two instantiations of one generic lane substrate, and bit-packed
// uint64 (64 stimulus lanes per word, thresholds by bit-sliced plane
// arithmetic). All three are bit-identical on compiled circuits, which
// the differential tests enforce.
//
// The arena is addressed in plan slot space: row r of the arena holds
// the activation of every unit the plan mapped to slot r, batch lanes
// side by side. internal/simengine translates port and feedback unit
// numbers through plan.Slot before touching a backend.
package backend

import (
	"fmt"

	"c2nn/internal/exec/plan"
	"c2nn/internal/obs"
)

// Kind selects an execution substrate.
type Kind uint8

// Substrates.
const (
	// Float32 runs fused float32 kernels, the paper's native SpMM
	// formulation (one float per activation lane).
	Float32 Kind = iota
	// Int32 runs exact integer kernels with fused integer thresholds.
	Int32
	// BitPacked packs 64 stimulus lanes into each uint64 word and
	// evaluates thresholds with bit-sliced plane arithmetic.
	BitPacked
)

// String names the substrate.
func (k Kind) String() string {
	switch k {
	case Float32:
		return "float32"
	case Int32:
		return "int32"
	case BitPacked:
		return "bitpacked"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns all substrates in declaration order.
func Kinds() []Kind { return []Kind{Float32, Int32, BitPacked} }

// ParseKind is the inverse of Kind.String, for -backend flags.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want float32, int32 or bitpacked)", name)
}

// substrate is what differs between element types: the activation
// arena, the row kernels over it, the activity snapshot diff, the port
// transfer and the lane accessors. Activations are binary (a compiled
// network invariant), so the accessors speak bool regardless of element
// type.
type substrate interface {
	// run evaluates rows of layer l with the kernel of the given kind.
	run(l *plan.Layer, kind plan.KernelKind, rows []int32)
	// snapshot allocates the previous-pass copy of that many root rows.
	snapshot(units int)
	// rootToggled diffs the arena rows in slots against snapshot rows
	// off, off+1, … and refreshes the snapshot rows that changed.
	rootToggled(slots []int32, off int) bool

	// SetPort writes a port value, lane-major with ceil(width/64) words
	// per lane (simengine.Cycle), into rows slots, bit i to slots[i];
	// lanes vals does not hold in full read as zero. GetPort is the
	// inverse, for the lanes out holds in full.
	SetPort(slots []int32, vals []uint64)
	GetPort(slots []int32, out []uint64)
	// Set writes one activation lane of an arena row.
	Set(slot int32, lane int, v bool)
	// Get reads one activation lane of an arena row.
	Get(slot int32, lane int) bool
	// SetUniform writes every lane of an arena row.
	SetUniform(slot int32, v bool)
	// Copy copies a whole arena row (all lanes), dst ← src.
	Copy(dst, src int32)
	// Zero clears the whole arena.
	Zero()
	// MemoryBytes reports the arena size in bytes.
	MemoryBytes() int64
}

// Backend is the execution driver over one substrate. The substrate's
// port and lane accessors (SetPort, GetPort, Set, Get, SetUniform, Copy,
// Zero, MemoryBytes) are promoted, so a caller's access is one dynamic
// call.
type Backend struct {
	substrate
	kind  Kind
	batch int
	plan  *plan.Plan
	pool  *Pool
	in    instr
	act   activity
	// cur is the in-flight dispatch read by runFn. Pool.Run blocks until
	// every chunk completes, so the fields are stable for a dispatch's
	// duration; building the closure once keeps RunLayer allocation-free
	// (Pool.Run stores the closure for its workers to read, so one built
	// per call would escape and heap-allocate on every group of every
	// pass).
	cur struct {
		l    *plan.Layer
		kind plan.KernelKind
		rows []int32
	}
	runFn func(lo, hi int)
}

// New builds a backend of the given kind over the plan. The pool may be
// nil or single-worker, in which case layers run inline. A non-nil
// trace turns on per-layer kernel spans and dispatch counters; nil
// keeps the hot path to a single branch per layer.
func New(k Kind, p *plan.Plan, batch int, pool *Pool, tr *obs.Trace) (*Backend, error) {
	if batch < 1 {
		return nil, fmt.Errorf("backend: batch must be >= 1, got %d", batch)
	}
	var sub substrate
	switch k {
	case Float32:
		sub = newLanes(p, batch, func(l *plan.Layer) ([]float32, []float32) { return l.W.Val, l.Bias })
	case Int32:
		sub = newLanes(p, batch, func(l *plan.Layer) ([]int32, []int32) { return l.WInt.Val, l.Thresh })
	case BitPacked:
		var err error
		if sub, err = newPacked(p, batch, tr); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("backend: unknown kind %d", uint8(k))
	}
	b := &Backend{substrate: sub, kind: k, batch: batch, plan: p, pool: pool, in: newInstr(tr, p)}
	b.runFn = func(lo, hi int) {
		c := &b.cur
		b.run(c.l, c.kind, c.rows[lo:hi])
	}
	return b, nil
}

// Kind identifies the substrate.
func (b *Backend) Kind() Kind { return b.kind }

// Batch returns the number of stimulus lanes.
func (b *Backend) Batch() int { return b.batch }

// Forward runs every layer of the plan over the current arena, as one
// skip pass when activity is enabled.
func (b *Backend) Forward() {
	b.act.begin(b.substrate)
	for li := range b.plan.Layers {
		b.RunLayer(li)
	}
	b.act.end()
}

// RunLayer runs a single plan layer over the current arena: one
// Pool.Run per non-empty row group. Forward is RunLayer over every
// layer in order; the split exists so callers can interpose per-lane
// state edits between layers (the fault-injection overlay hook).
// Called directly it is never subject to activity skipping.
func (b *Backend) RunLayer(li int) {
	sp := b.in.beginLayer(li)
	l := &b.plan.Layers[li]
	b.cur.l = l
	for gi := range l.Groups {
		g := &l.Groups[gi]
		rows := b.act.rowsFor(li, gi, g)
		if len(rows) == 0 {
			continue // every row's cluster is clean this pass
		}
		b.in.countRows(g.Kind, len(rows))
		b.cur.kind, b.cur.rows = g.Kind, rows
		b.pool.Run(l, rows, b.runFn)
	}
	sp.End()
}

// EnableActivity turns on activity-driven execution: every Forward
// starts by diffing the sequential roots (input ports, FF Q bits)
// against the previous pass, propagates dirtiness through the plan's
// cluster graph, and dispatches only rows of dirty clusters — clean
// clusters' output slots keep last pass's values. Needs cluster
// metadata and an alias-free arena (plan.Options.Activity provides
// both); returns plan.ErrNoClusters / plan.ErrAliasedSlots otherwise.
func (b *Backend) EnableActivity() error {
	if b.act.enabled {
		return nil
	}
	if err := b.act.enable(b.plan, b.in.tr); err != nil {
		return err
	}
	b.snapshot(b.act.units)
	return nil
}

// InvalidateActivity forces every cluster dirty on the next Forward —
// required after state mutations the root diff cannot see (arena
// Zero/Reset, direct unit pokes, fault-overlay churn). No-op when
// activity is disabled.
func (b *Backend) InvalidateActivity() { b.act.invalid = true }

// ActivityCounters reports how many clusters were dispatched dirty and
// skipped clean over the backend's lifetime (both zero when activity
// is disabled).
func (b *Backend) ActivityCounters() (dirty, skipped int64) {
	return b.act.dirtyN.Value(), b.act.skippedN.Value()
}

// ActivityRootToggles copies the lifetime per-root toggle counts (how
// many passes each sequential root — input port or FF Q bit — actually
// changed value in any lane) into dst, growing it when needed, and
// returns the filled slice in plan.ActivityIndex root order. Returns
// nil when activity is disabled. Safe concurrently with Forward — each
// count is read atomically, a consistent-enough live view for telemetry
// ranking busiest roots, not a barrier snapshot.
func (b *Backend) ActivityRootToggles(dst []int64) []int64 {
	return loadCounts(b.act.rootTog, dst)
}

// ActivityClusterDirty copies the lifetime per-cluster dirty counts
// (how many passes dispatched each cluster of plan.ClusterMeta) into
// dst, growing it when needed. Returns nil when activity is disabled;
// concurrency as ActivityRootToggles.
func (b *Backend) ActivityClusterDirty(dst []int64) []int64 {
	return loadCounts(b.act.clusterDirty, dst)
}

// instr is the driver's observability hook-up: pre-built per-layer
// span names (so the hot path never formats strings) and pre-resolved
// dispatch counters per layer form and per kernel kind. The zero instr
// is the disabled state — beginLayer is then a single nil check.
type instr struct {
	tr    *obs.Trace
	names []string
	// disp[li] is layer li's exec.dispatch.linear / .threshold counter.
	disp []*obs.Counter
	// kinds counts rows dispatched through each specialized kernel of
	// the row-group IR (exec.kernel.<kind>).
	kinds [plan.NumKernelKinds]*obs.Counter
}

func newInstr(tr *obs.Trace, p *plan.Plan) instr {
	if tr == nil {
		return instr{}
	}
	in := instr{tr: tr, names: make([]string, len(p.Layers)), disp: make([]*obs.Counter, len(p.Layers))}
	for i := range p.Layers {
		form := "threshold"
		if p.Layers[i].Linear() {
			form = "linear"
		}
		in.names[i] = fmt.Sprintf("layer %03d %s", i, form)
		in.disp[i] = tr.Counter("exec.dispatch." + form)
	}
	for k := range in.kinds {
		in.kinds[k] = tr.Counter("exec.kernel." + plan.KernelKind(k).String())
	}
	return in
}

// beginLayer counts the dispatch and opens the layer's kernel span.
// With no trace attached it returns the inert zero Span.
func (in *instr) beginLayer(li int) obs.Span {
	if in.tr == nil {
		return obs.Span{}
	}
	in.disp[li].Inc()
	return in.tr.Begin(in.names[li])
}

// countRows tallies dispatched rows on their kernel-kind counter.
// Activity-driven passes pass the dirty subset, so the counters
// reflect work actually done, not plan shape.
func (in *instr) countRows(k plan.KernelKind, rows int) {
	if in.tr == nil {
		return
	}
	in.kinds[k].Add(int64(rows))
}
