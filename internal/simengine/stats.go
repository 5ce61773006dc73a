package simengine

import (
	"fmt"
	"time"

	"c2nn/internal/obs"
)

// passNSEdges are the engine.pass_ns histogram bucket edges: a 1-2-5
// decade ladder from 1 µs to 1 s, covering everything from a skipped
// pass on a toy circuit to a full dispatch of a large design.
func passNSEdges() []int64 {
	edges := make([]int64, 0, 19)
	for decade := int64(1_000); decade <= 1_000_000_000; decade *= 10 {
		edges = append(edges, decade, 2*decade, 5*decade)
	}
	return edges
}

// StatsSnapshot is a point-in-time read of a running engine's lifetime
// counters. It holds no window: a reader that wants rates diffs two
// snapshots it took itself (`c2nn watch` does), so any number of
// readers can snapshot without disturbing one another.
type StatsSnapshot struct {
	Time time.Time `json:"time"`

	// Passes counts Forward calls; Cycles counts Step calls (Forward +
	// LatchFeedback).
	Passes int64 `json:"passes"`
	Cycles int64 `json:"cycles"`

	// PassNS distributes per-Forward wall time in nanoseconds — its
	// Count is Passes; AvgPassNS is the lifetime mean.
	PassNS    obs.HistogramSnapshot `json:"pass_ns"`
	AvgPassNS int64                 `json:"avg_pass_ns"`

	// Activity-driven execution: lifetime dirty/skipped cluster
	// dispatches. Both zero without Options.Activity.
	DirtyClusters   int64 `json:"dirty_clusters"`
	SkippedClusters int64 `json:"skipped_clusters"`

	// Shape and occupancy: arena footprint, stimulus lanes, worker
	// width, and — meaningful for the bit-packed substrate — the
	// fraction of packed word lanes carrying real stimuli.
	ArenaBytes  int64   `json:"arena_bytes"`
	Batch       int     `json:"batch"`
	Workers     int     `json:"workers"`
	LaneUtilPct float64 `json:"lane_util_pct"`
}

// engineStats is what the hot path records and nothing else: the pass
// histogram (whose Count and Sum are the pass count and total pass
// time) and the cycle counter.
type engineStats struct {
	passNS *obs.Histogram
	cycles *obs.Counter
}

// newEngineStats wires the collection state. With a trace attached both
// metrics land in its registry (and so in /metrics and the sampler);
// without one they are private to the engine.
func newEngineStats(tr *obs.Trace) *engineStats {
	if tr == nil {
		return &engineStats{passNS: obs.NewHistogram(passNSEdges()), cycles: new(obs.Counter)}
	}
	return &engineStats{passNS: tr.Histogram("engine.pass_ns", passNSEdges()), cycles: tr.Counter("engine.cycles")}
}

// StatsSnapshot reads the engine's lifetime runtime counters. ok is
// false when the engine was created without Options.Stats. The read
// changes no state, so it is safe from any goroutine while the engine
// runs.
func (e *Engine) StatsSnapshot() (StatsSnapshot, bool) {
	s := e.stats
	if s == nil {
		return StatsSnapshot{}, false
	}
	snap := StatsSnapshot{
		Time:       time.Now(),
		Cycles:     s.cycles.Value(),
		PassNS:     s.passNS.Snapshot(),
		ArenaBytes: e.be.MemoryBytes(),
		Batch:      e.batch,
		Workers:    e.workers,
	}
	snap.Passes = snap.PassNS.Count
	if snap.Passes > 0 {
		snap.AvgPassNS = snap.PassNS.Sum / snap.Passes
	}
	snap.DirtyClusters, snap.SkippedClusters = e.be.ActivityCounters()
	if e.prec == BitPacked {
		words := (e.batch + 63) / 64
		snap.LaneUtilPct = 100 * float64(e.batch) / float64(words*64)
	} else {
		snap.LaneUtilPct = 100
	}
	return snap, true
}

// RootNames labels every sequential root in plan.ActivityIndex order —
// input ports first, then flip-flop Q bits — the order of
// ActivityRootToggles.
func (e *Engine) RootNames() []string {
	m := e.model
	names := make([]string, 0, len(m.Inputs)+len(m.Feedback))
	for _, port := range m.Inputs {
		names = append(names, "port "+port.Name)
	}
	for fi, fb := range m.Feedback {
		names = append(names, fmt.Sprintf("ff[%d] q=%d", fi, fb.ToPI))
	}
	return names
}
