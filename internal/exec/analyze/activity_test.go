package analyze

import (
	"errors"
	"testing"

	"c2nn/internal/exec/plan"
	"c2nn/internal/simengine"
)

// TestProbeResetReentersAllDirty is the regression test for the Reset
// edge case: a probe that has settled into a quiet workload must
// re-enter the all-dirty first-step state after engine.Reset(), because
// the wipe rewrote every intermediate value behind the root diff's
// back (the same invalidation the backend performs).
func TestProbeResetReentersAllDirty(t *testing.T) {
	model, _ := compilePlan(t, 4, false)
	eng, err := simengine.New(model, simengine.Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := Run(eng.Plan(), Options{}); err != nil {
		t.Fatal(err)
	}
	pr, err := NewProbe(eng)
	if err != nil {
		t.Fatal(err)
	}
	clusters := len(eng.Plan().Clusters.Clusters)

	// Settle: constant-zero inputs and a held FF state leave nothing
	// dirty after the first step.
	for i := 0; i < 3; i++ {
		eng.Step()
		pr.Sample()
	}
	if got := pr.LastDirtyClusters(); got != 0 {
		t.Fatalf("settled workload still dirties %d clusters", got)
	}

	eng.Reset()
	eng.Step()
	pr.Sample()
	if got := pr.LastDirtyClusters(); got != clusters {
		t.Fatalf("first sample after Reset dirties %d clusters, want all %d", got, clusters)
	}

	// And the re-entry is one-shot: the workload settles again.
	eng.Step()
	pr.Sample()
	if got := pr.LastDirtyClusters(); got != 0 {
		t.Fatalf("second sample after Reset dirties %d clusters, want 0", got)
	}
}

// TestProbePokeReentersAllDirty covers the other invisible mutation:
// PokeUnit advances the engine's state generation, so the next sample
// counts everything dirty.
func TestProbePokeReentersAllDirty(t *testing.T) {
	model, _ := compilePlan(t, 4, false)
	eng, err := simengine.New(model, simengine.Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := Run(eng.Plan(), Options{}); err != nil {
		t.Fatal(err)
	}
	pr, err := NewProbe(eng)
	if err != nil {
		t.Fatal(err)
	}
	clusters := len(eng.Plan().Clusters.Clusters)
	for i := 0; i < 2; i++ {
		eng.Step()
		pr.Sample()
	}
	eng.PokeUnit(model.Feedback[0].ToPI, 0, true)
	eng.Step()
	pr.Sample()
	if got := pr.LastDirtyClusters(); got != clusters {
		t.Fatalf("first sample after PokeUnit dirties %d clusters, want all %d", got, clusters)
	}
}

// TestProbeNoClustersTypedError is the regression test for hand-built
// and unanalyzed plans: NewProbe must fail with the typed ErrNoClusters
// both when no metadata is attached and when the attached metadata has
// zero clusters — never with a panic.
func TestProbeNoClustersTypedError(t *testing.T) {
	model, _ := compilePlan(t, 4, false)
	eng, err := simengine.New(model, simengine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Fresh plan, never analyzed: no metadata at all.
	if _, err := NewProbe(eng); !errors.Is(err, ErrNoClusters) {
		t.Fatalf("no metadata: got %v, want ErrNoClusters", err)
	}

	// Attached but empty metadata (the hand-built plan shape).
	eng.Plan().Clusters = &plan.ClusterMeta{RowCluster: make([][]int32, len(eng.Plan().Layers))}
	if _, err := NewProbe(eng); !errors.Is(err, ErrNoClusters) {
		t.Fatalf("zero clusters: got %v, want ErrNoClusters", err)
	}
	eng.Plan().Clusters = nil
}

// TestProbeRootToggles sanity-checks the toggle tallies behind the
// profile table: a port driven every step tops the list, and forced
// all-dirty steps (the first sample) are not counted as toggles.
func TestProbeRootToggles(t *testing.T) {
	model, _ := compilePlan(t, 4, false)
	eng, err := simengine.New(model, simengine.Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := Run(eng.Plan(), Options{}); err != nil {
		t.Fatal(err)
	}
	pr, err := NewProbe(eng)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	for i := 0; i < steps; i++ {
		if err := eng.SetInputUniform("din", uint64(0x55*(i%2))); err != nil {
			t.Fatal(err)
		}
		eng.Step()
		pr.Sample()
	}
	tog := pr.RootToggles()
	if len(tog) == 0 {
		t.Fatal("no root toggles reported")
	}
	if tog[0].Name != "port din" {
		t.Fatalf("busiest root %q, want port din", tog[0].Name)
	}
	// din alternates every step after the first (all-dirty) sample.
	if tog[0].Toggles != steps-1 {
		t.Fatalf("din toggled %d times, want %d", tog[0].Toggles, steps-1)
	}
}
