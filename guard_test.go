package c2nn

// The "each concept has one home" guards (DESIGN.md "One driver"): a
// table of source patterns with the paths they may occur in and how
// often. They are greps, so they run here, in tier-1, not only in CI.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guard bounds the occurrences of pattern over the tree. A line counts
// when its file's slash path matches in and "path:line" does not match
// allow; with perFile set, files with a counted line are counted
// instead of lines.
type guard struct {
	why     string
	pattern string
	in      string // default: every .go file
	allow   string
	perFile bool
	min     int
	max     int
}

const notTests = `_test\.go:`

var guards = []guard{
	// One execution driver (PR 13).
	{why: "retired layer-kernel enum / per-binary backend flag parser",
		pattern: `KernelUnitThreshold|pickPrecision`},
	{why: "exactly one walk of the plan",
		pattern: `^func \(.*\) RunLayer\(`, min: 1, max: 1},

	// One compile driver (PR 14, PR 16): internal/compile is the only
	// walk of the Fig. 1 stages, the Fig. 5 merge included; the ablation
	// harness and the examples are the stated exceptions and benchmark/
	// times the stages from outside.
	{why: "stage walk outside internal/compile",
		pattern: `nn\.Build\(|nn\.Merge\(|lutmap\.Coalesce\(`,
		allow:   notTests + `|^(internal/compile|examples|benchmark)/|^internal/bench/ablation\.go:`},
	// NoMerge survives on the facade only (c2nn.Options, root package):
	// the frozen benchmark times its zero value. ROADMAP item 1.
	{why: "retired compile-path name",
		pattern: `resolveCircuit|elaborateJob|CompileTraced|lintStage|buildMerged|buildUnmerged|NoMerge|no-merge`,
		allow:   `^[^/]+\.go:.*NoMerge|c2nn\.Options\{[^}]*NoMerge`},
	{why: "BuildOptions.Merge is the compile driver's spelling: set compile.Options.Merge or call nn.Merge",
		pattern: `BuildOptions\{[^}]*Merge:`, allow: `^(benchmark|internal/compile)/`},

	// One ledger (PR 15): one flag set, one row schema, one gate.
	{why: "retired bench surface",
		pattern: `equiv-out|analyze-out|activity-out|telemetry-out|WriteBackendsJSON|check_bench_regression`,
		in:      `\.(go|sh)$`, allow: notTests},
	{why: "cmd/bench flag declarations",
		pattern: `fs\.(String|Int|Bool|Duration|Float64)\(`, in: `^cmd/bench/main\.go$`, max: 9},

	// One run driver (PR 18): cmd/c2nn/session.go is the only place a
	// subcommand parses a testbench or a backend name or builds an
	// engine, simengine.Stimulus the only random-stimulus source.
	{why: "files of cmd/c2nn that parse a testbench",
		pattern: `testbench\.Parse\(`, in: `^cmd/c2nn/[^/]+\.go$`, allow: notTests, perFile: true, max: 1},
	{why: "files of cmd/c2nn that parse a backend name",
		pattern: `backend\.ParseKind\(`, in: `^cmd/c2nn/[^/]+\.go$`, allow: notTests, perFile: true, max: 1},
	{why: "files of cmd/c2nn that build an engine",
		pattern: `NewEngine\(|simengine\.New\(`, in: `^cmd/c2nn/[^/]+\.go$`, allow: notTests, perFile: true, max: 1},
	{why: "private random stimulus: draw from simengine.Stimulus",
		pattern: `rand\.New\(`, in: `^(cmd/c2nn/|internal/fault/|internal/simengine/verify\.go$)`, allow: notTests},
	{why: "the -flowmap knob is retired (lutmap.FlowMap stays for the ablation)",
		pattern: `(?i)flowmap`, in: `^cmd/.*\.go$`},
	{why: "width-mask sites on drawn values (simengine/stimulus.go)",
		pattern: `&= *1<<uint\(`, allow: notTests + `|^benchmark/`, min: 1, max: 1},
	{why: "cmd/c2nn flag declarations",
		pattern: `fs\.(String|Int|Int64|Bool|Duration|Float64)\(`, in: `^cmd/c2nn/[^/]+\.go$`, max: 68},

	// Plans are derived state and row parallelism lives in backend.Pool
	// (PR 21): the plan file formats and the pre-Pool parallel kernels
	// must not come back.
	{why: "retired plan codec / parallel kernel",
		pattern: `C2NNKIR1|C2NNCLST|WriteKernelIR|ReadKernelIR|ReadClusterMeta|countWriter|ParallelSim|MulBatchParallel|WriteDOT|ClusterAt|elemBits|SortPorts|PeekNet`},

	// A row's kernel kind is its only class and VerifyAliasing the one
	// static arena proof: the second taxonomy, its census, the EX003
	// extent check and the clustering forward must not come back.
	{why: "retired row taxonomy / arena extent check / analyzer pass-through",
		pattern: `RowClass|ClassifyRow|ClassifyPlan|DegenReport|ConstValue|lintOverlap|RuleEXOverlap|analyze\.Cones`},

	// The kernel table holds only what plans select: no compiled plan
	// ever chose the ≤6-input truth-table kernel, so it and the per-row
	// table it threaded through plan, backend and cost model are gone.
	{why: "retired truth-table kernel",
		pattern: `KTable|EvalTable64|PackedTableRows|RowTable|TableOps|MaxTableInputs`},

	// Activity has one account, the backend's own counters: the lane-0
	// observer that re-simulated its root diff, and the state generation
	// only that observer read, must not come back.
	{why: "retired activity probe",
		pattern: `NewProbe|analyze\.Probe|StateGeneration|LastDirtyClusters|ActivityStats`},

	// Engine statistics are counted once and windowed by their reader:
	// StatsSnapshot is a stateless lifetime read and `c2nn watch` diffs
	// snapshots, so the engine-side windows, EWMA, root ranking and the
	// publish-on-read gauges must not come back — nor the fault and
	// polynomial entry points nothing called.
	{why: "retired engine-side stats windows",
		pattern: `statsEWMAAlpha|RootToggleStat|BusiestRoots|WindowCyclesPerSec|rankRoots|StatsEnabled|FromTableIterative|ResetPass|engine\.cycles_per_sec|engine\.skip_rate_pct`},
}

func TestGuards(t *testing.T) {
	type file struct {
		path  string
		lines []string
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".sh" || path == "guard_test.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(path), strings.Split(string(src), "\n")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guards {
		pattern := regexp.MustCompile(g.pattern)
		in := regexp.MustCompile(`\.go$`)
		if g.in != "" {
			in = regexp.MustCompile(g.in)
		}
		var allow *regexp.Regexp
		if g.allow != "" {
			allow = regexp.MustCompile(g.allow)
		}
		var hits []string
		for _, f := range files {
			if !in.MatchString(f.path) {
				continue
			}
			for i, line := range f.lines {
				if !pattern.MatchString(line) || allow != nil && allow.MatchString(f.path+":"+line) {
					continue
				}
				hits = append(hits, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
				if g.perFile {
					break
				}
			}
		}
		if n := len(hits); n < g.min || n > g.max {
			t.Errorf("%s: /%s/ occurs %d times, want %d..%d\n\t%s",
				g.why, g.pattern, n, g.min, g.max, strings.Join(hits, "\n\t"))
		}
	}
}
