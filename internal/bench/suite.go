package bench

import (
	"fmt"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/obs"
)

// Row is the one schema every suite emits: a single number, keyed by
// where it was measured (circuit, L, backend, variant, batch, workers)
// and what it is (metric, unit). Booleans are 0/1 with unit "bool".
// Variant names the workload or the side of an ablation pair; Workers
// is 0 for the engine default (GOMAXPROCS).
type Row struct {
	Suite   string  `json:"suite"`
	Circuit string  `json:"circuit,omitempty"`
	L       int     `json:"l,omitempty"`
	Backend string  `json:"backend,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Batch   int     `json:"batch,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Metric  string  `json:"metric"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
}

// key identifies a row within a ledger: everything but the value.
func (r Row) key() Row {
	r.Value, r.Unit = 0, ""
	return r
}

// Env is the one configuration every suite runs under. Suite.Env fills
// it with the suite's defaults; cmd/bench overrides a field only when
// its flag was set.
type Env struct {
	Circuits     []circuits.Circuit
	Ls           []int         // LUT sizes swept
	Batch        int           // NN stimulus batch (stimulus parallelism)
	MinMeasure   time.Duration // per-measurement time floor
	VerifyCycles int           // table1: equivalence-check cycles per row (0 skips)
	Seed         int64
	Trace        *obs.Trace                       // nil = no spans recorded
	Logf         func(format string, args ...any) // progress lines; nil = quiet
}

func (e *Env) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// each runs fn for every circuit × L of the sweep, in order.
func (e *Env) each(fn func(c circuits.Circuit, l int) error) error {
	for _, c := range e.Circuits {
		for _, l := range e.Ls {
			if err := fn(c, l); err != nil {
				return fmt.Errorf("%s L=%d: %w", c.Name, l, err)
			}
		}
	}
	return nil
}

// Suite is one entry of the harness table: a named measurement with its
// own defaults, the column order of its text table, and its gates.
type Suite struct {
	Name, Title string
	Circuits    []string // default circuits; nil = every benchmark circuit
	InAll       []string // default circuits under `bench all`; nil = Circuits
	Ls          []int
	Batch       int
	Columns     []string // text-table columns, each "metric[@backend][#workers]"
	Gates       []Gate
	run         func(*Env, *emitter) error
}

// Suites is the harness, in the order `bench all` runs it. Table I's
// batch is the 256 that EXPERIMENTS.md reports it at: the 1024 the old
// config struct documented was shadowed by the -batch flag default and
// never ran.
var Suites = []Suite{
	{Name: "table1", Title: "Table I", Ls: []int{3, 7, 11}, Batch: 256, run: runTable1,
		Columns: []string{"loc", "gates", "gcs@gatesim", "gen_s", "memory_mb", "connections",
			"layers", "sparsity", "gcs@float32", "gcs@bitpacked", "speedup", "verified"}},
	{Name: "fig4", Title: "Fig. 4: polynomial generation time", Circuits: []string{}, Ls: seq(2, 20), run: runFig4,
		Columns: []string{"alg1_ns", "dnf_ns", "terms"}},
	{Name: "fig6", Title: "Fig. 6: UART LUT-size sweep", Circuits: []string{"UART"}, Ls: seq(2, 11), Batch: 1, run: runFig6,
		Columns: []string{"layers", "connections", "step_ns", "step_ns#1"}},
	{Name: "ablations", Title: "Ablations", Circuits: []string{"UART"}, Ls: []int{7}, Batch: 512, run: runAblations,
		Columns: []string{"layers", "depth", "luts", "connections", "gcs@float32", "gcs@int32",
			"gcs@bitpacked", "gcs@gatesim", "pass_ns", "sparsity", "nnz"}},
	{Name: "backends", Title: "Execution backends", Ls: []int{4, 7}, Batch: 256, run: runBackends,
		Columns: []string{"gates", "gcs@float32", "gcs@int32", "gcs@bitpacked", "packed_speedup"},
		Gates:   []Gate{{Metric: "packed_speedup", Op: ">=", Bound: 0.8, VsBaseline: true}}},
	{Name: "faults", Title: "Fault grading (faults/s per backend)", InAll: []string{"UART", "SPI"},
		Ls: []int{4}, Batch: 64, run: runFaults,
		Columns: []string{"gates", "raw_faults", "simulated", "coverage", "fps@float32", "fps@int32",
			"fps@bitpacked", "packed_speedup"}},
	{Name: "equiv", Title: "Formal equivalence (SAT miters + per-LUT chain)", InAll: []string{"UART", "SPI"},
		Ls: []int{4, 7, 11}, run: runEquiv,
		Columns: []string{"vars", "clauses", "tseitin_gates", "solves", "conflicts", "cnf_ms", "sweep_ms",
			"solve_ms", "total_ms", "chain_luts", "chain_rows", "equivalent"}},
	{Name: "analyze", Title: "Static plan analysis (clusters, cost model, aliasing proof)",
		Ls: []int{4, 7}, Batch: 256, run: runAnalyze,
		Columns: []string{"layers", "components", "clusters", "rows", "packed_word_ops", "alias_clean",
			"cost_correlation", "activity.dirty_fraction", "activity.dirty_cost_fraction"},
		Gates: []Gate{
			{Metric: "alias_clean", Op: "==", Bound: 1, MinRows: 1},
			{Metric: "activity.dirty_fraction", Op: ">=", Bound: 0, MinRows: 6}}},
	{Name: "activity", Title: "Activity-driven execution (skip rate, speedup)",
		Circuits: []string{"UART", "SPI", "DMA"}, Ls: []int{4}, Batch: 256, run: runActivity,
		Columns: []string{"steps", "clusters", "skip_rate", "baseline_ns_per_step", "activity_ns_per_step",
			"speedup", "equal"},
		Gates: []Gate{
			{Metric: "equal", Op: "==", Bound: 1, MinRows: 1},
			{Metric: "skip_rate", Variant: "uart_smoke.tb", Op: ">", Bound: 0, MinRows: 1},
			{Metric: "speedup", Variant: "dense_random", Op: ">=", Bound: 0.8}}},
	{Name: "telemetry", Title: "Telemetry overhead (stats + sampler + flight recorder)",
		Ls: []int{7}, Batch: 256, run: runTelemetry,
		Columns: []string{"gates", "steps", "ns_per_step_off", "ns_per_step_on", "overhead_pct",
			"allocs_per_step_off", "allocs_per_step_on", "sampler_pass_ns", "sampler_gcs"},
		Gates: []Gate{
			{Metric: "allocs_per_step_off", Op: "<", Bound: 0.01, MinRows: 1},
			{Metric: "overhead_pct", Op: "<=", Bound: 1, BoundEnv: "TELEMETRY_TOL_PCT", MinRows: 1}}},
	{Name: "influence", Title: "§II-B: LUT sensitivity vs polynomial density", Ls: []int{7}, run: runInfluence,
		Columns: []string{"luts", "mean_influence", "mean_density", "correlation", "max_degree"}},
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// Lookup finds a suite by name.
func Lookup(name string) (*Suite, error) {
	var names []string
	for i := range Suites {
		if Suites[i].Name == name {
			return &Suites[i], nil
		}
		names = append(names, Suites[i].Name)
	}
	return nil, fmt.Errorf("bench: unknown suite %q (have %s)", name, strings.Join(names, " "))
}

// Circuits resolves circuit names; nil means every benchmark circuit.
func Circuits(names []string) ([]circuits.Circuit, error) {
	if names == nil {
		return circuits.All(), nil
	}
	list := make([]circuits.Circuit, 0, len(names))
	for _, n := range names {
		c, err := circuits.ByName(n)
		if err != nil {
			return nil, err
		}
		list = append(list, c)
	}
	return list, nil
}

// Env returns the suite's default configuration; all selects the
// bounded circuit list a suite declares for `bench all`.
func (s *Suite) Env(all bool) (*Env, error) {
	names := s.Circuits
	if all && s.InAll != nil {
		names = s.InAll
	}
	list, err := Circuits(names)
	if err != nil {
		return nil, err
	}
	return &Env{Circuits: list, Ls: s.Ls, Batch: s.Batch,
		MinMeasure: 300 * time.Millisecond, VerifyCycles: 16, Seed: 1}, nil
}

// Run measures the suite under e — inside one "suite <name>" span when
// e.Trace is set — and returns its rows. On error the rows emitted so
// far are returned alongside it.
func (s *Suite) Run(e *Env) ([]Row, error) {
	sp := e.Trace.Begin("suite " + s.Name)
	defer sp.End()
	out := &emitter{row: Row{Suite: s.Name, Batch: e.Batch}, rows: new([]Row)}
	err := s.run(e, out)
	return *out.rows, err
}

// emitter appends rows sharing a set of key fields; at/on/as/with derive
// an emitter with more of the key filled in.
type emitter struct {
	row  Row
	rows *[]Row
}

func (m emitter) at(circuit string, l int) *emitter { m.row.Circuit, m.row.L = circuit, l; return &m }
func (m emitter) on(backend string) *emitter        { m.row.Backend = backend; return &m }
func (m emitter) as(variant string) *emitter        { m.row.Variant = variant; return &m }
func (m emitter) with(workers int) *emitter         { m.row.Workers = workers; return &m }

func (m *emitter) put(metric string, v float64, unit string) {
	r := m.row
	r.Metric, r.Value, r.Unit = metric, v, unit
	*m.rows = append(*m.rows, r)
}

// count, flag and dur are put for the three commonest units.
func (m *emitter) count(metric string, n int64) { m.put(metric, float64(n), "count") }
func (m *emitter) dur(metric string, d time.Duration) {
	m.put(metric, float64(d.Nanoseconds()), "ns")
}
func (m *emitter) flag(metric string, ok bool) {
	v := 0.0
	if ok {
		v = 1
	}
	m.put(metric, v, "bool")
}
