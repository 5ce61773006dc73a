// Package analyze is the static analysis framework over compiled
// execution plans (internal/exec/plan) — the compile-time foundation of
// activity-driven execution (ROADMAP item 2) and kernel specialization
// (item 3). It computes three independent artifacts from a plan and the
// model it lowers:
//
//   - cone-of-influence clustering (cones.go): each layer's rows are
//     partitioned into FF/port-rooted clusters with forward
//     cleanliness-propagation edges, attached to the plan
//     (plan.ClusterMeta) for the activity-driven backend to consume;
//
//   - a static cost model (cost.go): per-layer and per-cluster op
//     counts for all three backends — float MACs, integer ops,
//     bit-plane additions and compare passes for the packed substrate —
//     plus packed-word traffic and a roofline-style intensity figure;
//
//   - an arena aliasing and liveness proof (alias.go): an independent
//     re-derivation of every slot's lifetime as a write/read sweep over
//     the layer sequence, proving that no kernel ever reads a slot
//     after its unit was evicted and no live activation is clobbered —
//     the class of plan-compiler bug the differential backend tests can
//     only witness dynamically, proven here statically.
//
// Degenerate-row classification (degenerate.go) rides along: every
// threshold or linear row is classified as constant / buffer / inverter
// / AND / OR / NAND / NOR / XOR-form / general, the single source of
// truth for the kernel-specialization pass.
//
// Run ties them together and reports violations as PA001–PA008 lint
// rules (lint.go) registered with the irlint registry; irlint.Check
// runs the whole analysis as the stage after the plan lint.
package analyze

import (
	"c2nn/internal/exec/plan"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/obs"
)

// Result carries every artifact of one analysis run.
type Result struct {
	// Plan is the analyzed plan, with Plan.Clusters attached.
	Plan *plan.Plan
	// Meta is the clustering (same object as Plan.Clusters).
	Meta *plan.ClusterMeta
	// Cost is the static cost model report.
	Cost *CostReport
	// Degenerate is the per-row classification summary.
	Degenerate *DegenReport
	// Diags collects every rule violation found (empty on a clean
	// plan, save for the PA008 summary info).
	Diags []diag.Diagnostic
}

// Options tunes an analysis run.
type Options struct {
	// Trace, when non-nil, records analyze.cones / analyze.cost /
	// analyze.alias spans with result-size attributes.
	Trace *obs.Trace
}

// Run analyzes a compiled plan: clustering (attached to the plan),
// cost model, aliasing proof and degenerate-row classification, with
// every violation reported through the PA lint rules.
func Run(p *plan.Plan, opts Options) (*Result, error) {
	res := &Result{Plan: p}

	sp := opts.Trace.Begin("analyze.cones")
	meta, err := Cones(p)
	if err != nil {
		sp.End()
		return nil, err
	}
	p.Clusters = meta
	res.Meta = meta
	sp.SetInt("components", int64(meta.NumComponents)).
		SetInt("clusters", int64(len(meta.Clusters))).End()

	csp := opts.Trace.Begin("analyze.cost")
	res.Cost = Cost(p)
	res.Degenerate = ClassifyPlan(p)
	csp.SetInt("layers", int64(len(res.Cost.Layers))).
		SetInt("packed_word_ops", res.Cost.Total.PackedWordOps).End()

	asp := opts.Trace.Begin("analyze.alias")
	res.Diags = append(res.Diags, VerifyAliasing(p)...)
	asp.SetInt("diags", int64(len(res.Diags))).End()

	res.Diags = append(res.Diags, lintClusters(p, meta)...)
	res.Diags = append(res.Diags, lintDegenerate(p, res.Degenerate)...)
	res.Diags = append(res.Diags, summaryInfo(p, res)...)
	return res, nil
}
