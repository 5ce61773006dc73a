package analyze

import (
	"errors"
	"testing"

	"c2nn/internal/exec/backend"
	"c2nn/internal/exec/plan"
	"c2nn/internal/simengine"
)

// These tests pin the activity accounting that DirtyCostFraction and
// the profile's toggle table read: the backend's own lifetime
// per-cluster dirty and per-root toggle counts, read through the
// engine.

// newActivityEngine builds a batch-2 activity engine over the crc8
// fixture.
func newActivityEngine(t *testing.T) *simengine.Engine {
	t.Helper()
	model, _ := compilePlan(t, 4, false)
	eng, err := simengine.New(model, simengine.Options{Batch: 2, Activity: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// dirtyStep runs one pass and returns how many clusters it dispatched
// dirty, from the per-cluster counts before and after.
func dirtyStep(eng *simengine.Engine) int {
	before := eng.ActivityClusterDirty(nil)
	eng.Step()
	after := eng.ActivityClusterDirty(nil)
	n := 0
	for ci := range after {
		n += int(after[ci] - before[ci])
	}
	return n
}

// TestProbeResetReentersAllDirty is the regression test for the Reset
// edge case: an engine that has settled into a quiet workload must
// dispatch every cluster on the first pass after Reset, because the
// wipe rewrote every intermediate value behind the root diff's back.
func TestProbeResetReentersAllDirty(t *testing.T) {
	eng := newActivityEngine(t)
	clusters := len(eng.Plan().Clusters.Clusters)

	// Settle: constant-zero inputs and a held FF state leave nothing
	// dirty after the first pass.
	for i := 0; i < 2; i++ {
		eng.Step()
	}
	if got := dirtyStep(eng); got != 0 {
		t.Fatalf("settled workload still dirties %d clusters", got)
	}

	eng.Reset()
	if got := dirtyStep(eng); got != clusters {
		t.Fatalf("first pass after Reset dirties %d clusters, want all %d", got, clusters)
	}

	// And the re-entry is one-shot: the workload settles again.
	if got := dirtyStep(eng); got != 0 {
		t.Fatalf("second pass after Reset dirties %d clusters, want 0", got)
	}
}

// TestProbePokeReentersAllDirty covers the other invisible mutation:
// PokeUnit invalidates the root diff, so the next pass dispatches
// every cluster.
func TestProbePokeReentersAllDirty(t *testing.T) {
	eng := newActivityEngine(t)
	clusters := len(eng.Plan().Clusters.Clusters)
	for i := 0; i < 2; i++ {
		eng.Step()
	}
	eng.PokeUnit(eng.Model().Feedback[0].ToPI, 0, true)
	if got := dirtyStep(eng); got != clusters {
		t.Fatalf("first pass after PokeUnit dirties %d clusters, want all %d", got, clusters)
	}
}

// TestProbeNoClustersTypedError is the regression test for hand-built
// plans: activity over an attached but empty clustering must fail with
// the typed plan.ErrNoClusters, never with a panic, and pricing such a
// plan (or one with no metadata at all) yields nothing.
func TestProbeNoClustersTypedError(t *testing.T) {
	model, _ := compilePlan(t, 4, false)
	p, err := plan.CompileOpts(model, plan.Options{DisableArenaReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if cc := ClusterCosts(p); cc != nil {
		t.Fatalf("no metadata: %d cluster costs, want none", len(cc))
	}
	if got := DirtyCostFraction(p, []int64{1}, 1); got != 0 {
		t.Fatalf("no metadata: dirty cost fraction %v, want 0", got)
	}

	// Attached but empty metadata (the hand-built plan shape).
	p.Clusters = &plan.ClusterMeta{RowCluster: make([][]int32, len(p.Layers))}
	if got := DirtyCostFraction(p, nil, 1); got != 0 {
		t.Fatalf("zero clusters: dirty cost fraction %v, want 0", got)
	}
	be, err := backend.New(backend.BitPacked, p, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.EnableActivity(); !errors.Is(err, plan.ErrNoClusters) {
		t.Fatalf("zero clusters: got %v, want plan.ErrNoClusters", err)
	}
}

// TestProbeRootToggles sanity-checks the toggle tallies behind the
// profile table: a port driven every pass tops the list, and the forced
// all-dirty first pass is not counted as a toggle.
func TestProbeRootToggles(t *testing.T) {
	eng := newActivityEngine(t)
	const steps = 6
	for i := 0; i < steps; i++ {
		if err := eng.SetInputUniform("din", uint64(0x55*(i%2))); err != nil {
			t.Fatal(err)
		}
		eng.Step()
	}
	tog, names := eng.ActivityRootToggles(nil), eng.RootNames()
	if len(tog) == 0 || len(tog) != len(names) {
		t.Fatalf("%d root toggle counts for %d root names", len(tog), len(names))
	}
	busiest := 0
	for r := range tog {
		if tog[r] > tog[busiest] {
			busiest = r
		}
	}
	if names[busiest] != "port din" {
		t.Fatalf("busiest root %q, want port din", names[busiest])
	}
	// din alternates every pass after the first (all-dirty) one.
	if tog[busiest] != steps-1 {
		t.Fatalf("din toggled %d times, want %d", tog[busiest], steps-1)
	}
}
