package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects spans and owns the metric registry. The zero value is
// not usable; construct with New or NewWithLimit, or keep a nil *Trace
// for the disabled state.
type Trace struct {
	mu       sync.Mutex
	epoch    time.Time
	now      func() time.Duration // virtualised in tests
	spans    []spanData
	stack    []int32
	dropped  int64
	maxSpans int

	metricsMu  sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// rec, when attached, mirrors closed spans and receives structured
	// lifecycle events — the always-on flight recorder.
	rec atomic.Pointer[FlightRecorder]
}

// AttachFlightRecorder attaches (or with nil detaches) a flight
// recorder: closed spans are mirrored into its ring and Event records
// land there. Safe to call at any time; no-op on a nil Trace.
func (t *Trace) AttachFlightRecorder(fr *FlightRecorder) {
	if t == nil {
		return
	}
	t.rec.Store(fr)
}

// FlightRecorder returns the attached recorder (nil when detached or
// on a nil Trace).
func (t *Trace) FlightRecorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec.Load()
}

// Event records a structured lifecycle event into the attached flight
// recorder. Without a recorder (or on a nil Trace) it is a single
// branch and an atomic load — cheap enough to leave compiled into
// engine lifecycle paths.
func (t *Trace) Event(kind, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	if fr := t.rec.Load(); fr != nil {
		fr.Record(kind, name, attrs...)
	}
}

// Counter is a monotonically increasing metric, safe for concurrent
// use. A nil *Counter (from a nil Trace) is inert.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric, safe for concurrent use. A nil
// *Gauge is inert.
type Gauge struct{ v atomic.Int64 }

// Set stores the value; no-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histHalf is one side of the histogram's hot/cold double buffer.
// done counts observations fully recorded into this half, which is how
// a snapshot knows when the cold half has quiesced.
type histHalf struct {
	counts []atomic.Int64 // len(edges)+1
	sum    atomic.Int64
	done   atomic.Int64
}

// Histogram buckets integer observations by fixed upper-bound edges:
// observation v lands in the first bucket whose edge satisfies
// v <= edge, with one implicit overflow bucket past the last edge. A
// nil *Histogram is inert.
//
// Writers record into the hot half of a double buffer; Snapshot flips
// the halves, waits for in-flight writers to drain out of the now-cold
// half, and reads it without any concurrent mutation — so a snapshot
// taken mid-write can never report a bucket/count/sum mix from
// different instants (the sampler and the Prometheus exporter rely on
// this). Observe stays lock-free: four atomic ops, no allocation.
type Histogram struct {
	edges []int64
	// hotAndCount packs the hot-half index in bit 63 and the lifetime
	// count of initiated observations in the low 63 bits. One Add
	// claims a slot in the hot half and counts the observation.
	hotAndCount atomic.Uint64
	halves      [2]histHalf
	snapMu      sync.Mutex
}

// NewHistogram creates a standalone histogram with the given sorted
// bucket edges — for callers that meter outside a Trace registry (the
// engine's per-pass clock when no sink is attached). Trace.Histogram
// remains the registered path.
func NewHistogram(edges []int64) *Histogram {
	h := &Histogram{edges: append([]int64(nil), edges...)}
	for i := range h.halves {
		h.halves[i].counts = make([]atomic.Int64, len(edges)+1)
	}
	return h
}

const histCountMask = 1<<63 - 1

// Observe records one value; no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	n := h.hotAndCount.Add(1)
	half := &h.halves[n>>63]
	i := sort.Search(len(h.edges), func(i int) bool { return v <= h.edges[i] })
	half.counts[i].Add(1)
	half.sum.Add(v)
	half.done.Add(1)
}

// HistogramSnapshot is one internally consistent read of a histogram:
// Count always equals the sum of Counts, and Sum covers exactly those
// observations.
type HistogramSnapshot struct {
	Edges  []int64 `json:"edges"`
	Counts []int64 `json:"counts"` // len(Edges)+1, last is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot atomically captures the histogram: it flips the hot half,
// waits for writers still inside the cold half to finish, reads the
// quiesced half, then folds it back into the hot half so totals stay
// cumulative. Safe for concurrent use with Observe; nil yields the
// zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	n := h.hotAndCount.Add(1 << 63) // flip the hot half
	initiated := int64(n & histCountMask)
	hot := &h.halves[n>>63]
	cold := &h.halves[1-n>>63]
	// Every observation initiated before the flip landed in the cold
	// half (directly, or via an earlier fold); wait out the stragglers.
	for cold.done.Load() != initiated {
		runtime.Gosched()
	}
	s := HistogramSnapshot{
		Edges:  append([]int64(nil), h.edges...),
		Counts: make([]int64, len(cold.counts)),
		Sum:    cold.sum.Load(),
	}
	for i := range cold.counts {
		c := cold.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	// Fold the cold half into the hot one and zero it, so the next flip
	// again finds all history on one side.
	for i := range cold.counts {
		hot.counts[i].Add(s.Counts[i])
		cold.counts[i].Store(0)
	}
	hot.sum.Add(s.Sum)
	cold.sum.Store(0)
	hot.done.Add(initiated)
	cold.done.Store(0)
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the snapshot by
// linear interpolation within the owning bucket, mirroring Prometheus'
// histogram_quantile. The overflow bucket reports its lower edge.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		lo := 0.0
		if i > 0 {
			lo = float64(s.Edges[i-1])
		}
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(s.Edges) { // overflow bucket has no upper edge
				return lo
			}
			hi := float64(s.Edges[i])
			if rank <= cum {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	if len(s.Edges) > 0 {
		return float64(s.Edges[len(s.Edges)-1])
	}
	return 0
}

// Counts returns the per-bucket counts (len(Edges())+1, the last being
// the overflow bucket). Use Snapshot when Counts, Count and Sum must
// agree with each other.
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	return h.Snapshot().Counts
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return int64(h.hotAndCount.Load() & histCountMask)
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Sum
}

// Counter returns (registering on first use) the named counter, or nil
// on a nil Trace. Resolve handles once outside hot loops: Add is then
// one atomic op.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]*Counter)
	}
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil on
// a nil Trace.
func (t *Trace) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if t.gauges == nil {
		t.gauges = make(map[string]*Gauge)
	}
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given sorted bucket edges, or nil on a nil Trace. An existing
// registration wins; the edges argument is only consulted on first use.
func (t *Trace) Histogram(name string, edges []int64) *Histogram {
	if t == nil {
		return nil
	}
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if t.histograms == nil {
		t.histograms = make(map[string]*Histogram)
	}
	h, ok := t.histograms[name]
	if !ok {
		h = NewHistogram(edges)
		t.histograms[name] = h
	}
	return h
}

// NameStat aggregates every span sharing one name — the hot-layer /
// hot-stage rollup behind "c2nn profile -top".
type NameStat struct {
	Name  string
	Count int64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// StatsByName aggregates closed spans by name, sorted by total duration
// descending (ties by name). Open spans are excluded — their duration
// is not yet known.
func (t *Trace) StatsByName() []NameStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	agg := make(map[string]*NameStat)
	for i := range t.spans {
		sd := &t.spans[i]
		if sd.open {
			continue
		}
		st, ok := agg[sd.name]
		if !ok {
			st = &NameStat{Name: sd.name, Min: sd.dur, Max: sd.dur}
			agg[sd.name] = st
		}
		st.Count++
		st.Total += sd.dur
		if sd.dur < st.Min {
			st.Min = sd.dur
		}
		if sd.dur > st.Max {
			st.Max = sd.dur
		}
	}
	t.mu.Unlock()
	out := make([]NameStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
