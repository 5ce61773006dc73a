package simengine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"c2nn/internal/obs"
)

// statsEWMAAlpha weighs the newest snapshot window into the running
// cycles/s estimate: high enough to track testbench phase changes
// within a few samples, low enough to damp scheduler jitter.
const statsEWMAAlpha = 0.3

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

// RootToggleStat is one sequential root's toggle activity over a
// snapshot window — the busiest-root ranking of StatsSnapshot.
type RootToggleStat struct {
	// Root is the flattened root index (plan.ActivityIndex order:
	// input ports first, then FF Q bits).
	Root int `json:"root"`
	// Name labels the root ("port wr_en", "ff[3] q=17").
	Name string `json:"name"`
	// WindowToggles counts passes in the window on which the root
	// changed value; LifetimeToggles is the cumulative count.
	WindowToggles   int64 `json:"window_toggles"`
	LifetimeToggles int64 `json:"lifetime_toggles"`
}

// StatsSnapshot is one point-in-time view of a running engine, built
// by Engine.StatsSnapshot from counters the hot path maintains with
// single atomic adds. Window fields cover the interval since the
// previous snapshot; cumulative fields are lifetime totals.
type StatsSnapshot struct {
	Time time.Time `json:"time"`

	// Passes counts Forward calls; Cycles counts Step calls (Forward +
	// LatchFeedback). Window deltas cover the snapshot interval.
	Passes       int64 `json:"passes"`
	Cycles       int64 `json:"cycles"`
	WindowPasses int64 `json:"window_passes"`
	WindowCycles int64 `json:"window_cycles"`

	// CyclesPerSec is the EWMA-smoothed engine step rate, seeded with
	// the first window;
	// WindowCyclesPerSec the raw rate of the latest window. Multiply by
	// Batch (and the model's gate count) for the paper's gates·cycles/s.
	CyclesPerSec       float64 `json:"cycles_per_sec"`
	WindowCyclesPerSec float64 `json:"window_cycles_per_sec"`

	// PassNS distributes per-Forward wall time in nanoseconds;
	// AvgPassNS is the lifetime mean.
	PassNS    obs.HistogramSnapshot `json:"pass_ns"`
	AvgPassNS int64                 `json:"avg_pass_ns"`

	// Activity-driven execution: lifetime dirty/skipped cluster
	// dispatches, their window deltas, and the window skip rate.
	// All zero without Options.Activity.
	DirtyClusters   int64   `json:"dirty_clusters"`
	SkippedClusters int64   `json:"skipped_clusters"`
	WindowDirty     int64   `json:"window_dirty"`
	WindowSkipped   int64   `json:"window_skipped"`
	SkipRatePct     float64 `json:"skip_rate_pct"`

	// BusiestRoots ranks sequential roots by window toggles,
	// descending (at most statsTopRoots entries, quiet roots omitted).
	BusiestRoots []RootToggleStat `json:"busiest_roots,omitempty"`

	// Shape and occupancy: arena footprint, stimulus lanes, worker
	// width, and — meaningful for the bit-packed substrate — the
	// fraction of packed word lanes carrying real stimuli.
	ArenaBytes  int64   `json:"arena_bytes"`
	Batch       int     `json:"batch"`
	Workers     int     `json:"workers"`
	LaneUtilPct float64 `json:"lane_util_pct"`
}

// statsTopRoots caps the busiest-root ranking per snapshot.
const statsTopRoots = 5

// engineStats is the engine-side collection state. The hot path
// (recordPass, recordCycle) touches only the atomics; everything else
// lives behind snapMu and is paid by the snapshot caller — typically a
// sampler goroutine, never the forward pass.
type engineStats struct {
	enabled bool

	passes atomic.Int64
	cycles atomic.Int64
	passNS atomic.Int64
	hist   *obs.Histogram

	snapMu     sync.Mutex
	haveWindow bool
	lastTime   time.Time
	lastPasses int64
	lastCycles int64
	lastDirty  int64
	lastSkip   int64
	ewma       float64
	haveEWMA   bool
	prevTog    []int64
	curTog     []int64
	rootNames  []string

	gCPS, gSkip, gArena *obs.Gauge
}

// newEngineStats wires the collection state. With a trace attached the
// pass histogram and snapshot gauges land in its registry (and so in
// /metrics); without one the histogram is private and gauges are off.
func newEngineStats(tr *obs.Trace) *engineStats {
	s := &engineStats{enabled: true}
	if tr != nil {
		s.hist = tr.Histogram("engine.pass_ns", passNSEdges())
		s.gCPS = tr.Gauge("engine.cycles_per_sec")
		s.gSkip = tr.Gauge("engine.skip_rate_pct")
		s.gArena = tr.Gauge("engine.arena_bytes")
	} else {
		s.hist = obs.NewHistogram(passNSEdges())
	}
	return s
}

// recordPass logs one Forward: three atomic adds and one histogram
// observe, no locks, no allocations.
func (s *engineStats) recordPass(ns int64) {
	s.passes.Add(1)
	s.passNS.Add(ns)
	s.hist.Observe(ns)
}

func (s *engineStats) recordCycle() { s.cycles.Add(1) }

// StatsEnabled reports whether runtime stats collection is on
// (Options.Stats).
func (e *Engine) StatsEnabled() bool { return e.stats != nil }

// StatsSnapshot builds a point-in-time view of the engine's runtime
// counters. ok is false when the engine was created without
// Options.Stats. The first snapshot has empty window fields (there is
// no previous sample to diff against); subsequent calls report exact
// deltas — consecutive windows partition the cumulative counters.
// Safe to call from any goroutine while the engine runs.
func (e *Engine) StatsSnapshot() (StatsSnapshot, bool) {
	s := e.stats
	if s == nil {
		return StatsSnapshot{}, false
	}
	now := time.Now()
	snap := StatsSnapshot{
		Time:       now,
		Passes:     s.passes.Load(),
		Cycles:     s.cycles.Load(),
		PassNS:     s.hist.Snapshot(),
		ArenaBytes: e.be.MemoryBytes(),
		Batch:      e.batch,
		Workers:    e.workers,
	}
	if snap.Passes > 0 {
		snap.AvgPassNS = s.passNS.Load() / snap.Passes
	}
	snap.DirtyClusters, snap.SkippedClusters = e.be.ActivityCounters()
	if e.prec == BitPacked {
		words := (e.batch + 63) / 64
		snap.LaneUtilPct = 100 * float64(e.batch) / float64(words*64)
	} else {
		snap.LaneUtilPct = 100
	}

	s.snapMu.Lock()
	if s.haveWindow {
		snap.WindowPasses = snap.Passes - s.lastPasses
		snap.WindowCycles = snap.Cycles - s.lastCycles
		snap.WindowDirty = snap.DirtyClusters - s.lastDirty
		snap.WindowSkipped = snap.SkippedClusters - s.lastSkip
		if span := now.Sub(s.lastTime); span > 0 {
			snap.WindowCyclesPerSec = float64(snap.WindowCycles) / span.Seconds()
			if s.haveEWMA {
				s.ewma = statsEWMAAlpha*snap.WindowCyclesPerSec + (1-statsEWMAAlpha)*s.ewma
			} else {
				s.ewma, s.haveEWMA = snap.WindowCyclesPerSec, true
			}
		}
		if tot := snap.WindowDirty + snap.WindowSkipped; tot > 0 {
			snap.SkipRatePct = 100 * float64(snap.WindowSkipped) / float64(tot)
		}
	} else if tot := snap.DirtyClusters + snap.SkippedClusters; tot > 0 {
		snap.SkipRatePct = 100 * float64(snap.SkippedClusters) / float64(tot)
	}
	snap.CyclesPerSec = s.ewma

	s.curTog = e.ActivityRootToggles(s.curTog)
	if s.curTog != nil {
		snap.BusiestRoots = s.rankRoots(e)
		if cap(s.prevTog) < len(s.curTog) {
			s.prevTog = make([]int64, len(s.curTog))
		}
		s.prevTog = s.prevTog[:len(s.curTog)]
		copy(s.prevTog, s.curTog)
	}

	s.lastTime = now
	s.lastPasses = snap.Passes
	s.lastCycles = snap.Cycles
	s.lastDirty = snap.DirtyClusters
	s.lastSkip = snap.SkippedClusters
	first := !s.haveWindow
	s.haveWindow = true
	s.snapMu.Unlock()

	if !first {
		s.gCPS.Set(int64(snap.CyclesPerSec))
		s.gSkip.Set(int64(snap.SkipRatePct))
	}
	s.gArena.Set(snap.ArenaBytes)
	return snap, true
}

// rankRoots builds the busiest-root ranking from the window deltas of
// the per-root toggle counters. Caller holds snapMu; s.curTog is the
// fresh cumulative read, s.prevTog the previous snapshot's.
func (s *engineStats) rankRoots(e *Engine) []RootToggleStat {
	if s.rootNames == nil {
		s.rootNames = e.RootNames()
	}
	stats := make([]RootToggleStat, 0, len(s.curTog))
	for r, cum := range s.curTog {
		w := cum
		if r < len(s.prevTog) {
			w = cum - s.prevTog[r]
		}
		if w <= 0 {
			continue
		}
		name := ""
		if r < len(s.rootNames) {
			name = s.rootNames[r]
		}
		stats = append(stats, RootToggleStat{Root: r, Name: name, WindowToggles: w, LifetimeToggles: cum})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].WindowToggles != stats[j].WindowToggles {
			return stats[i].WindowToggles > stats[j].WindowToggles
		}
		return stats[i].Root < stats[j].Root
	})
	if len(stats) > statsTopRoots {
		stats = stats[:statsTopRoots]
	}
	return stats
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
