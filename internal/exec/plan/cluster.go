package plan

import "fmt"

// Cluster metadata: the product of the static cone-of-influence
// analysis (internal/exec/analyze). It is derived state, recomputed from
// the model whenever a plan is compiled and never stored. The types live
// here, next to the Plan they annotate, so that the analyzer (which
// imports plan) and the activity-driven backend (which plan must not
// import) share one definition without an import cycle.
//
// The model: every network unit sits in the influence cone of a set of
// sequential roots — input ports and flip-flop Q bits. Units whose
// cones overlap anywhere are merged into one component (union-find over
// the layer reads), and each layer's rows are partitioned by component:
// one cluster per (layer, component) pair that has rows. A cluster
// carries the roots its rows read directly and edges to the clusters
// that produced its other inputs, so cleanliness propagates forward:
//
//	dirty(cluster) = any direct root toggled ∨ any predecessor dirty
//
// A clean cluster's rows cannot change and the backend may skip them —
// the static foundation of activity-driven execution (ROADMAP item 2).

// RootKind classifies a sequential root of the influence analysis.
type RootKind uint8

// Root kinds.
const (
	// RootPort is a primary-input port: Index is the position in
	// Model.Inputs. All bits of a port toggle together for dirtiness
	// purposes (stimulus is loaded per port).
	RootPort RootKind = iota
	// RootFF is a flip-flop Q bit: Index is the position in
	// Model.Feedback.
	RootFF
)

// String names the root kind.
func (k RootKind) String() string {
	switch k {
	case RootPort:
		return "port"
	case RootFF:
		return "ff"
	}
	return fmt.Sprintf("rootkind(%d)", uint8(k))
}

// RootRef names one sequential root.
type RootRef struct {
	Kind  RootKind
	Index int32
}

// Cluster is one (layer, component) partition cell: a maximal set of
// rows of one layer whose influence cones belong to the same component.
type Cluster struct {
	// Layer is the plan layer whose rows this cluster partitions.
	Layer int32
	// Component is the global cone component the rows belong to.
	Component int32
	// Rows are the row indices of Layer in this cluster, ascending.
	Rows []int32
	// Roots are the sequential roots rows of this cluster read
	// directly (sorted by kind then index, deduplicated).
	Roots []RootRef
	// Preds are indices into ClusterMeta.Clusters of the clusters
	// whose output rows this cluster reads (sorted, deduplicated).
	// Cleanliness propagates along these edges.
	Preds []int32
}

// ClusterMeta is the full clustering of a plan.
type ClusterMeta struct {
	// NumComponents is the number of distinct cone components.
	NumComponents int32
	// Clusters is every (layer, component) cluster, sorted by layer
	// then component — execution order for forward propagation.
	Clusters []Cluster
	// RowCluster maps [layer][row] to an index into Clusters.
	RowCluster [][]int32
}
