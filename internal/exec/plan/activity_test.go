package plan

import (
	"errors"
	"testing"
)

// TestActivityIndexPartition compiles with Options.Activity and checks
// the dispatch index against the kernel IR: per (layer, group), the
// segments must partition the group's rows exactly — same rows — and
// every segment's rows must map to its cluster through RowCluster.
func TestActivityIndexPartition(t *testing.T) {
	for _, merge := range []bool{true, false} {
		model := buildModel(t, 4, merge)
		p, err := CompileOpts(model, Options{Activity: true})
		if err != nil {
			t.Fatalf("merge=%v: %v", merge, err)
		}
		if p.Clusters == nil || p.Activity == nil {
			t.Fatalf("merge=%v: Activity compile left Clusters=%v Activity=%v",
				merge, p.Clusters != nil, p.Activity != nil)
		}
		idx := p.Activity
		if len(idx.Segments) != len(p.Layers) {
			t.Fatalf("merge=%v: %d segment layers for %d plan layers", merge, len(idx.Segments), len(p.Layers))
		}
		for li := range p.Layers {
			l := &p.Layers[li]
			rc := p.Clusters.RowCluster[li]
			if len(idx.Segments[li]) != len(l.Groups) {
				t.Fatalf("layer %d: %d segment groups for %d groups", li, len(idx.Segments[li]), len(l.Groups))
			}
			for gi := range l.Groups {
				g := &l.Groups[gi]
				var rows []int32
				for _, s := range idx.Segments[li][gi] {
					for _, r := range s.Rows {
						if rc[r] != s.Cluster {
							t.Fatalf("layer %d group %d: row %d in segment of cluster %d, RowCluster says %d",
								li, gi, r, s.Cluster, rc[r])
						}
					}
					rows = append(rows, s.Rows...)
				}
				// The segments must cover the group exactly: same rows
				// as a set.
				if len(rows) != len(g.Rows) {
					t.Fatalf("layer %d group %d: segments carry %d rows, group has %d",
						li, gi, len(rows), len(g.Rows))
				}
				want := make(map[int32]bool, len(g.Rows))
				for _, r := range g.Rows {
					want[r] = true
				}
				for _, r := range rows {
					if !want[r] {
						t.Fatalf("layer %d group %d: segment row %d not in group", li, gi, r)
					}
					delete(want, r)
				}
			}
		}
		// Activity implies a pinned arena: the slot map is injective.
		if p.ArenaUnits != model.Net.TotalUnits {
			t.Fatalf("merge=%v: activity arena %d rows, want flat %d", merge, p.ArenaUnits, model.Net.TotalUnits)
		}
	}
}

// TestActivityIndexRejectsAliasedArena proves the slot-injectivity
// gate: a plan compiled with arena reuse (slots shared across disjoint
// live ranges) must be refused with the typed ErrAliasedSlots.
func TestActivityIndexRejectsAliasedArena(t *testing.T) {
	model := buildModel(t, 3, false) // deep unmerged network: reuse shrinks the arena
	p, err := Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	if p.ArenaUnits >= model.Net.TotalUnits {
		t.Skip("arena did not shrink; nothing aliased to refuse")
	}
	if _, err := BuildActivityIndex(p); !errors.Is(err, ErrAliasedSlots) {
		t.Fatalf("aliased arena: got %v, want ErrAliasedSlots", err)
	}
}

// TestActivityIndexNoClusters proves the typed error for plans without
// usable cluster metadata: an attached but empty clustering must be
// refused with ErrNoClusters rather than building an empty index.
func TestActivityIndexNoClusters(t *testing.T) {
	model := buildModel(t, 4, false)
	p, err := CompileOpts(model, Options{DisableArenaReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Clusters = &ClusterMeta{RowCluster: make([][]int32, len(p.Layers))}
	if _, err := BuildActivityIndex(p); !errors.Is(err, ErrNoClusters) {
		t.Fatalf("empty clustering: got %v, want ErrNoClusters", err)
	}
}
