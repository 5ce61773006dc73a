package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"c2nn/internal/compile"
	"c2nn/internal/exec/analyze"
	"c2nn/internal/exec/plan"
	"c2nn/internal/irlint/diag"
)

// clusterLine is one cluster's row in the -clusters breakdown.
type clusterLine struct {
	Cluster   int   `json:"cluster"`
	Layer     int   `json:"layer"`
	Component int   `json:"component"`
	Rows      int   `json:"rows"`
	NNZ       int   `json:"nnz"`
	WordOps   int64 `json:"word_ops"`
	Roots     int   `json:"roots"`
	Preds     int   `json:"preds"`
}

// analyzeReport is the machine-readable envelope of one "c2nn analyze"
// target — the static analysis of its compiled execution plan.
type analyzeReport struct {
	Circuit      string              `json:"circuit"`
	L            int                 `json:"l"`
	Layers       int                 `json:"layers"`
	TotalUnits   int                 `json:"total_units"`
	ArenaUnits   int                 `json:"arena_units"`
	Components   int32               `json:"components"`
	Clusters     int                 `json:"clusters"`
	Cost         *analyze.CostReport `json:"cost"`
	KernelMix    map[string]int      `json:"kernel_mix"`
	ClusterTable []clusterLine       `json:"cluster_table"`
	Diags        []diag.Diagnostic   `json:"diagnostics"`
}

// runAnalyze implements the "c2nn analyze" subcommand: compile targets
// to execution plans and run the static analyzer — cone clustering,
// cost model, aliasing proof, constant rows — reporting per layer and
// per cluster. Exit status is nonzero only on Error diagnostics.
func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("c2nn analyze", flag.ExitOnError)
	var (
		lutSize  = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		topMod   = fs.String("topmod", "", "top module name for Verilog file targets (default: inferred)")
		circuit  = fs.String("circuit", "", "analyze a built-in benchmark circuit")
		all      = fs.Bool("all", false, "analyze every built-in benchmark circuit")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		topN     = fs.Int("top", 10, "rows of the hottest-layer cost table (0 disables)")
		showClus = fs.Bool("clusters", false, "print the per-cluster breakdown")
		merge    = fs.Bool("merge", false, "apply the Fig. 5 layer merge")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn analyze [-all | -circuit name | file.v ...] [-L n] [-merge] [-json] [-top n] [-clusters]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	targets, err := compile.Targets(*all, *circuit, fs.Args(), *topMod)
	if err != nil {
		return err
	}
	opts := compile.Options{L: *lutSize, Merge: *merge}

	var reports []analyzeReport
	failed := false
	for _, t := range targets {
		rep, err := analyzeTarget(t, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		for _, d := range rep.Diags {
			if d.Severity == diag.Error {
				failed = true
				break
			}
		}
		reports = append(reports, *rep)
		if !*jsonOut {
			printAnalyzeText(rep, *topN, *showClus)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(reports) == 1 {
			if err := enc.Encode(reports[0]); err != nil {
				return err
			}
		} else if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("error diagnostics found")
	}
	return nil
}

// analyzeTarget compiles one target to a plan and runs the analyzer.
func analyzeTarget(src compile.Source, opts compile.Options) (*analyzeReport, error) {
	cres, err := compile.Run(src, opts, nil)
	if err != nil {
		return nil, err
	}
	model := cres.Model
	p, err := plan.Compile(model)
	if err != nil {
		return nil, err
	}
	res, err := analyze.Run(p, analyze.Options{})
	if err != nil {
		return nil, err
	}
	r := &diag.Report{}
	r.Add(res.Diags...)
	r.Sort()
	meta := p.Clusters
	table := make([]clusterLine, 0, len(meta.Clusters))
	for _, cc := range analyze.ClusterCosts(p) {
		c := &meta.Clusters[cc.Cluster]
		table = append(table, clusterLine{
			Cluster: cc.Cluster, Layer: cc.Layer, Component: cc.Component,
			Rows: cc.Rows, NNZ: cc.NNZ, WordOps: cc.PackedWordOps,
			Roots: len(c.Roots), Preds: len(c.Preds),
		})
	}
	return &analyzeReport{
		Circuit:      src.Name,
		L:            model.L,
		Layers:       len(p.Layers),
		TotalUnits:   model.Net.TotalUnits,
		ArenaUnits:   p.ArenaUnits,
		Components:   meta.NumComponents,
		Clusters:     len(meta.Clusters),
		Cost:         res.Cost,
		KernelMix:    p.KernelMix(),
		ClusterTable: table,
		Diags:        r.Diags,
	}, nil
}

// mixString renders a kernel-mix tally compactly, largest first.
func mixString(mix map[string]int) string {
	if len(mix) == 0 {
		return "-"
	}
	kinds := make([]string, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if mix[kinds[i]] != mix[kinds[j]] {
			return mix[kinds[i]] > mix[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, mix[k])
	}
	return strings.Join(parts, " ")
}

// printAnalyzeText renders one report for the terminal: the summary
// line, the hottest-layer cost table and optionally every cluster.
func printAnalyzeText(rep *analyzeReport, topN int, showClusters bool) {
	fmt.Printf("%s (L=%d): %d layers, %d components, %d clusters, arena %d/%d units\n",
		rep.Circuit, rep.L, rep.Layers, rep.Components, rep.Clusters,
		rep.ArenaUnits, rep.TotalUnits)
	fmt.Printf("  cost: %d float MACs, %d packed word ops (%d plane adds + %d compare passes), intensity %.3f ops/byte, critical path %d\n",
		rep.Cost.Total.FloatMACs, rep.Cost.Total.PackedWordOps,
		rep.Cost.Total.PlaneAdds, rep.Cost.Total.ComparePasses,
		rep.Cost.Total.Intensity, rep.Cost.Total.CriticalPath)

	fmt.Printf("  kernel_mix: %d rows (%s)\n", rep.Cost.Total.Rows, mixString(rep.KernelMix))

	if topN > 0 {
		hot := make([]analyze.LayerCost, len(rep.Cost.Layers))
		copy(hot, rep.Cost.Layers)
		sort.SliceStable(hot, func(i, j int) bool {
			if hot[i].PackedWordOps != hot[j].PackedWordOps {
				return hot[i].PackedWordOps > hot[j].PackedWordOps
			}
			return hot[i].Layer < hot[j].Layer
		})
		if len(hot) > topN {
			hot = hot[:topN]
		}
		fmt.Printf("  %-6s %-15s %8s %9s %9s %10s %9s  %s\n",
			"layer", "kernel", "rows", "nnz", "clusters", "word-ops", "ops/byte", "kernel-mix")
		for _, lc := range hot {
			fmt.Printf("  %-6d %-15s %8d %9d %9d %10d %9.3f  %s\n",
				lc.Layer, lc.Kernel, lc.Rows, lc.NNZ, lc.Clusters, lc.PackedWordOps, lc.Intensity,
				mixString(lc.KernelMix))
		}
	}

	if showClusters {
		fmt.Printf("  %-8s %-6s %-10s %6s %8s %10s %6s %6s\n",
			"cluster", "layer", "component", "rows", "nnz", "word-ops", "roots", "preds")
		for _, cl := range rep.ClusterTable {
			fmt.Printf("  %-8d %-6d %-10d %6d %8d %10d %6d %6d\n",
				cl.Cluster, cl.Layer, cl.Component, cl.Rows, cl.NNZ, cl.WordOps, cl.Roots, cl.Preds)
		}
	}

	for _, d := range rep.Diags {
		fmt.Printf("  %s\n", d)
	}
}
