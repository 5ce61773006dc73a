// Package simengine executes compiled neural-network models over
// batches of stimuli — the stand-in for PyTorch-on-GPU in the paper's
// evaluation (§IV). It exploits the same two parallelism axes:
//
//   - stimulus parallelism: a batch of B independent test vectors flows
//     through every layer together (one SpMM instead of B SpMVs);
//   - structural parallelism: each sparse layer product is partitioned
//     row-wise across a persistent worker pool.
//
// The package is the thin facade of the plan / kernel / backend split:
// models are lowered once by internal/exec/plan (kernel selection,
// threshold fusion, activation-arena liveness), and the forward pass
// runs on an internal/exec/backend substrate — Float32 (the paper's
// float32 PyTorch analogue, §III-E), Int32 (the integer kernels of
// §V's future work), or BitPacked (64 stimulus lanes per uint64 word,
// thresholds by bit-sliced plane arithmetic). The facade owns the port
// and feedback bookkeeping, translating unit numbers through the plan's
// slot map.
package simengine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"c2nn/internal/exec/backend"
	"c2nn/internal/exec/plan"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
)

// Precision selects the execution substrate of the forward pass.
type Precision = backend.Kind

// Precisions.
const (
	// Float32 runs float32 kernels, the paper's baseline arithmetic.
	Float32 = backend.Float32
	// Int32 runs exact integer kernels.
	Int32 = backend.Int32
	// BitPacked packs 64 stimulus lanes per uint64 word and evaluates
	// thresholds with bit-sliced boolean arithmetic.
	BitPacked = backend.BitPacked
)

// Options configures an engine.
type Options struct {
	// Batch is the number of stimuli evaluated per pass (default 1).
	Batch int
	// Workers is the width of the persistent worker pool for
	// row-parallel layer products (default GOMAXPROCS; 1 keeps
	// execution inline).
	Workers int
	// Precision selects the execution substrate.
	Precision Precision
	// KeepAllActivations compiles the plan without activation-arena
	// reuse, so every unit's value survives until the end of the
	// forward pass. Required for fault-injection overlays (WithFaults),
	// which read and rewrite unit activations between layers.
	KeepAllActivations bool
	// Activity turns on activity-driven execution: every Forward
	// starts by diffing the sequential roots (input ports, FF Q bits)
	// against the previous pass and skips the kernels of clusters that
	// cannot have changed, leaving their output slots holding last
	// pass's values. Implies KeepAllActivations-style arena pinning
	// (plan compilation disables arena reuse) so skipped slots are
	// never recycled. Bit-identical to a non-activity engine on every
	// workload — the differential battery enforces it.
	Activity bool
	// Stats turns on continuous runtime statistics: every Forward is
	// timed into a pass-latency histogram and every Step adds to a cycle
	// counter, and StatsSnapshot reads them as lifetime totals — rates,
	// skip rates and busiest-root windows are the reader's to derive by
	// diffing snapshots. The hot-path cost is one histogram observe per
	// pass and one counter add per cycle; disabled it is a single nil
	// check and zero allocations (benchmark-enforced).
	Stats bool
	// Trace, when non-nil, attaches the observability sink: the plan
	// lowering records a "plan" span and arena counters, every Forward
	// records a "forward" span with per-layer kernel child spans, and
	// the backend registers its dispatch counters and (bit-packed)
	// plane/lane occupancy gauges. With Stats also set, the pass
	// histogram, the cycle counter and the arena gauge land in the
	// trace's registry, so the obs exporters (Prometheus, sampler) see
	// them. Nil disables all of it at the cost of one branch per hook.
	Trace *obs.Trace
}

// Overlay is a per-lane state edit interposed between plan layers — the
// fault-injection hook. Apply is called with layer == -1 before the
// first layer of a forward pass and then once after each layer li
// completes; it may read and write unit activations through PeekUnit
// and PokeUnit.
type Overlay interface {
	Apply(e *Engine, layer int)
}

// Engine runs a model over a fixed-size stimulus batch with persistent
// flip-flop state per batch lane.
type Engine struct {
	model    *nn.Model
	plan     *plan.Plan
	be       *backend.Backend
	pool     *backend.Pool
	batch    int
	workers  int
	prec     Precision
	keepAll  bool
	activity bool
	overlay  Overlay
	tr       *obs.Trace
	stats    *engineStats // nil when Options.Stats is off
	close    sync.Once
	// in and out map a port name to its arena slots, LSB first.
	in, out map[string][]int32
}

// New creates an engine for the model: the model is lowered to an
// execution plan and a backend of the requested precision is allocated
// over the plan's activation arena.
func New(model *nn.Model, opts Options) (*Engine, error) {
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	p, err := plan.CompileOpts(model, plan.Options{
		DisableArenaReuse: opts.KeepAllActivations,
		Activity:          opts.Activity,
		Trace:             opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	pool := backend.NewPool(opts.Workers)
	be, err := backend.New(opts.Precision, p, opts.Batch, pool, opts.Trace)
	if err != nil {
		pool.Close()
		return nil, err
	}
	if opts.Activity {
		if err := be.EnableActivity(); err != nil {
			pool.Close()
			return nil, fmt.Errorf("simengine: %w", err)
		}
	}
	e := &Engine{
		model:    model,
		plan:     p,
		be:       be,
		pool:     pool,
		batch:    opts.Batch,
		workers:  opts.Workers,
		prec:     opts.Precision,
		keepAll:  opts.KeepAllActivations,
		activity: opts.Activity,
		tr:       opts.Trace,
		in:       portSlots(model.Inputs, p),
		out:      portSlots(model.Outputs, p),
	}
	if opts.Stats {
		e.stats = newEngineStats(opts.Trace)
		opts.Trace.Gauge("engine.arena_bytes").Set(be.MemoryBytes())
	}
	runtime.SetFinalizer(e, func(e *Engine) { e.Close() })
	e.tr.Event("engine", "create",
		obs.Attr{Key: "circuit", Str: model.CircuitName, IsStr: true},
		obs.Attr{Key: "batch", Int: int64(e.batch)},
		obs.Attr{Key: "precision", Str: e.prec.String(), IsStr: true})
	e.Reset()
	return e, nil
}

// portSlots resolves every port's units to arena slots once.
func portSlots(ports []nn.PortMap, p *plan.Plan) map[string][]int32 {
	m := make(map[string][]int32, len(ports))
	for _, pm := range ports {
		slots := make([]int32, len(pm.Units))
		for i, u := range pm.Units {
			slots[i] = p.Slot[u]
		}
		m[pm.Name] = slots
	}
	return m
}

// Close stops the engine's worker pool. The engine must not be used
// afterwards; Close is idempotent and also runs via finalizer for
// engines that are simply dropped.
func (e *Engine) Close() {
	e.close.Do(func() {
		e.pool.Close()
		runtime.SetFinalizer(e, nil)
	})
}

// Batch returns the configured batch size.
func (e *Engine) Batch() int { return e.batch }

// Model returns the compiled model.
func (e *Engine) Model() *nn.Model { return e.model }

// Plan returns the lowered execution plan the engine runs.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Precision returns the engine's execution substrate.
func (e *Engine) Precision() Precision { return e.prec }

// Trace returns the attached observability sink (nil when disabled).
func (e *Engine) Trace() *obs.Trace { return e.tr }

// ActivityEnabled reports whether activity-driven skipping is on.
func (e *Engine) ActivityEnabled() bool { return e.activity }

// ActivityCounters reports how many clusters the backend dispatched
// dirty and skipped clean over the engine's lifetime (both zero
// without Options.Activity).
func (e *Engine) ActivityCounters() (dirty, skipped int64) { return e.be.ActivityCounters() }

// ActivityRootToggles copies the backend's lifetime per-root toggle
// counts into dst, in RootNames order (nil without Options.Activity).
func (e *Engine) ActivityRootToggles(dst []int64) []int64 { return e.be.ActivityRootToggles(dst) }

// ActivityClusterDirty copies the backend's lifetime per-cluster dirty
// counts into dst, indexed like Plan().Clusters (nil without
// Options.Activity).
func (e *Engine) ActivityClusterDirty(dst []int64) []int64 { return e.be.ActivityClusterDirty(dst) }

// Reset clears all activations — including the Q lanes of flip-flops
// without initial state — and restores flip-flop initial state in every
// lane.
func (e *Engine) Reset() {
	e.be.Zero()
	e.be.SetUniform(e.plan.Slot[nn.ConstUnit], true)
	for _, fb := range e.model.Feedback {
		if fb.Init {
			e.be.SetUniform(e.plan.Slot[fb.ToPI], true)
		}
	}
	// The wipe rewrote intermediate slots behind the root diff's back:
	// the next activity pass must recompute everything.
	e.be.InvalidateActivity()
	e.tr.Event("engine", "reset")
}

// SetInput loads an input port from its Cycle layout: lane after lane,
// ceil(width/64) words per lane, least significant first, so for a port
// of at most 64 bits values[b] is lane b's value. Lanes values does not
// hold in full read as zero. The port moves in one gather; nothing is
// allocated.
func (e *Engine) SetInput(name string, values []uint64) error {
	slots, ok := e.in[name]
	if !ok {
		return fmt.Errorf("simengine: no input port %q", name)
	}
	e.be.SetPort(slots, values)
	return nil
}

// SetInputUniform loads the same value into all lanes: one row write
// per port bit. Bits beyond 64 read as zero.
func (e *Engine) SetInputUniform(name string, value uint64) error {
	slots, ok := e.in[name]
	if !ok {
		return fmt.Errorf("simengine: no input port %q", name)
	}
	for i, slot := range slots {
		e.be.SetUniform(slot, i < 64 && value>>uint(i)&1 == 1)
	}
	return nil
}

// SetInputBits loads the full width of an input port for one batch lane
// (LSB-first), leaving the other lanes as they are. Missing bits read
// as zero.
func (e *Engine) SetInputBits(name string, laneIdx int, bits []bool) error {
	slots, ok := e.in[name]
	if !ok {
		return fmt.Errorf("simengine: no input port %q", name)
	}
	if laneIdx < 0 || laneIdx >= e.batch {
		return fmt.Errorf("simengine: lane %d out of range", laneIdx)
	}
	for i, slot := range slots {
		e.be.Set(slot, laneIdx, i < len(bits) && bits[i])
	}
	return nil
}

// WithFaults installs (or, with nil, removes) a fault-injection
// overlay: per-lane state edits interposed between plan layers of every
// subsequent Forward. The engine must have been created with
// KeepAllActivations, otherwise arena-slot reuse could recycle the
// units the overlay touches mid-pass.
func (e *Engine) WithFaults(o Overlay) error {
	if o != nil && !e.keepAll {
		return errors.New("simengine: WithFaults needs an engine with KeepAllActivations")
	}
	e.overlay = o
	// Installing forces lanes mid-pass; removing leaves forced values
	// behind in intermediate slots. Either way the root diff cannot
	// see it, so the next activity pass recomputes everything.
	e.be.InvalidateActivity()
	if o != nil {
		e.tr.Event("overlay", "overlay.install")
	} else {
		e.tr.Event("overlay", "overlay.remove")
	}
	return nil
}

// PeekUnit reads one lane of a network unit's activation (unit space,
// translated through the plan's slot map).
func (e *Engine) PeekUnit(unit int32, lane int) bool {
	return e.be.Get(e.plan.Slot[unit], lane)
}

// PokeUnit writes one lane of a network unit's activation. Writes to
// units a later layer reads only persist under KeepAllActivations.
// A poke can land on any unit — including intermediates the activity
// root diff never inspects — so it invalidates the dirtiness state.
func (e *Engine) PokeUnit(unit int32, lane int, v bool) {
	e.be.Set(e.plan.Slot[unit], lane, v)
	e.be.InvalidateActivity()
	// Overlays poke per layer per pass; the recorder check keeps the
	// variadic attr slice from being built when nobody is listening.
	if e.tr.FlightRecorder() != nil {
		e.tr.Event("engine", "poke",
			obs.Attr{Key: "unit", Int: int64(unit)},
			obs.Attr{Key: "lane", Int: int64(lane)})
	}
}

// Forward runs one combinational pass: every plan layer's fused kernel
// on the engine's backend. With an overlay installed the pass runs
// layer by layer, applying the overlay before the first layer (layer
// -1) and after each completed layer.
func (e *Engine) Forward() {
	var t0 time.Time
	if e.stats != nil {
		t0 = time.Now()
	}
	sp := e.tr.Begin("forward")
	if e.overlay == nil {
		e.be.Forward()
	} else {
		e.overlay.Apply(e, -1)
		for li := range e.plan.Layers {
			e.be.RunLayer(li)
			e.overlay.Apply(e, li)
		}
	}
	sp.End()
	if e.stats != nil {
		e.stats.passNS.Observe(int64(time.Since(t0)))
	}
}

// LatchFeedback copies every flip-flop D value back to its Q input slot
// (the recurrent pseudo-I/O connection of §III-C).
func (e *Engine) LatchFeedback() {
	for _, fb := range e.model.Feedback {
		e.be.Copy(e.plan.Slot[fb.ToPI], e.plan.Slot[fb.FromUnit])
	}
}

// Step runs one full clock cycle: Forward then LatchFeedback.
func (e *Engine) Step() {
	e.Forward()
	e.LatchFeedback()
	if e.stats != nil {
		e.stats.cycles.Inc()
	}
}

// GetOutput reads an output port across lanes (values as set by the
// last Forward) in SetInput's Cycle layout, at the port's full width:
// ceil(width/64) words per lane, at least one, so for a port of at most
// 64 bits out[b] is lane b's value. Bits above the width read as zero.
func (e *Engine) GetOutput(name string) ([]uint64, error) {
	slots, ok := e.out[name]
	if !ok {
		return nil, fmt.Errorf("simengine: no output port %q", name)
	}
	out := make([]uint64, e.batch*max(1, (len(slots)+63)/64))
	e.be.GetPort(slots, out)
	return out, nil
}

// GetOutputBits reads the full width of an output port for one batch
// lane, LSB first.
func (e *Engine) GetOutputBits(name string, laneIdx int) ([]bool, error) {
	slots, ok := e.out[name]
	if !ok {
		return nil, fmt.Errorf("simengine: no output port %q", name)
	}
	if laneIdx < 0 || laneIdx >= e.batch {
		return nil, fmt.Errorf("simengine: lane %d out of range", laneIdx)
	}
	out := make([]bool, len(slots))
	for i, slot := range slots {
		out[i] = e.be.Get(slot, laneIdx)
	}
	return out, nil
}

// Throughput converts a timed run into the paper's metric,
// gates·cycles/s (§IV): batch lanes each advance `cycles` cycles.
// Degenerate inputs (no gates, no elapsed time) report zero rather than
// a meaningless or infinite rate.
func Throughput(gateCount int64, cycles, batch int, elapsed time.Duration) float64 {
	if gateCount <= 0 || elapsed <= 0 {
		return 0
	}
	return float64(gateCount) * float64(cycles) * float64(batch) / elapsed.Seconds()
}
