package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these, and
// the harness tests compare the two.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Bound is the
// share of the parent's median by which the metric may get worse before
// a change counts as a regression. They are always measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"gate_cycles_per_s", "gate-cycles/s", "higher", 0.25},
	{"cycle_us_quiet", "us", "lower", 0.25},
	{"nn_over_batchsim", "ratio", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, taken on the traced run.
// The layers are this repository's packages. A metric that does not
// apply to a workload reads 0 there (README.md lists which).
var perLayer = []metricDef{
	{Name: "verilog.parse_s", Unit: "s", Better: "lower"},
	{Name: "verilog.source_bytes", Unit: "count", Better: "lower"},
	{Name: "synth.elaborate_s", Unit: "s", Better: "lower"},
	{Name: "synth.gates", Unit: "count", Better: "lower"},
	{Name: "synth.ffs", Unit: "count", Better: "lower"},
	{Name: "lutmap.map_s", Unit: "s", Better: "lower"},
	{Name: "lutmap.luts", Unit: "count", Better: "lower"},
	{Name: "lutmap.depth", Unit: "count", Better: "lower"},
	{Name: "truthtab.tables_s", Unit: "s", Better: "lower"},
	{Name: "poly.convert_s", Unit: "s", Better: "lower"},
	{Name: "nn.build_s", Unit: "s", Better: "lower"},
	{Name: "nn.layers", Unit: "count", Better: "lower"},
	{Name: "nn.connections", Unit: "count", Better: "lower"},
	{Name: "nn.model_mb", Unit: "MB", Better: "lower"},
	{Name: "plan.compile_s", Unit: "s", Better: "lower"},
	{Name: "plan.rows", Unit: "count", Better: "lower"},
	{Name: "plan.rows_general", Unit: "count", Better: "lower"},
	{Name: "plan.groups_per_pass", Unit: "count", Better: "lower"},
	{Name: "plan.arena_units", Unit: "count", Better: "lower"},
	{Name: "analyze.word_ops_per_pass", Unit: "count", Better: "lower"},
	{Name: "analyze.bytes_per_pass", Unit: "count", Better: "lower"},
	{Name: "analyze.float_macs_per_pass", Unit: "count", Better: "lower"},
	{Name: "backend.new_s", Unit: "s", Better: "lower"},
	{Name: "backend.arena_mb", Unit: "MB", Better: "lower"},
	{Name: "backend.forward_s", Unit: "s", Better: "lower"},
	{Name: "backend.word_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "backend.roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "backend.hot_layer_share", Unit: "ratio", Better: "lower"},
	{Name: "backend.cost_model_r", Unit: "ratio", Better: "higher"},
	{Name: "backend.workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "backend.int32_over_f32", Unit: "ratio", Better: "higher"},
	{Name: "backend.activity_skip_rate", Unit: "ratio", Better: "higher"},
	{Name: "simengine.new_s", Unit: "s", Better: "lower"},
	{Name: "simengine.set_input_s", Unit: "s", Better: "lower"},
	{Name: "simengine.get_output_s", Unit: "s", Better: "lower"},
	{Name: "simengine.latch_s", Unit: "s", Better: "lower"},
	{Name: "simengine.io_share", Unit: "ratio", Better: "lower"},
	{Name: "simengine.set_ns_per_lane_bit", Unit: "ns", Better: "lower"},
	{Name: "simengine.get_ns_per_lane_bit", Unit: "ns", Better: "lower"},
	{Name: "simengine.latch_ns_per_ff", Unit: "ns", Better: "lower"},
	{Name: "simengine.cycle_us_p50", Unit: "us", Better: "lower"},
	{Name: "simengine.cycle_us_p95", Unit: "us", Better: "lower"},
	{Name: "simengine.cycle_samples", Unit: "count", Better: "higher"},
	{Name: "testbench.parse_s", Unit: "s", Better: "lower"},
	{Name: "testbench.directives", Unit: "count", Better: "lower"},
	{Name: "testbench.run_s", Unit: "s", Better: "lower"},
	{Name: "testbench.non_forward_share", Unit: "ratio", Better: "lower"},
	{Name: "gatesim.compile_s", Unit: "s", Better: "lower"},
	{Name: "gatesim.batchsim_gcps", Unit: "gate-cycles/s", Better: "higher"},
	{Name: "gatesim.scalar_gcps", Unit: "gate-cycles/s", Better: "higher"},
	{Name: "gatesim.event_gcps", Unit: "gate-cycles/s", Better: "higher"},
	{Name: "runtime.setup_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "machine.stream_word_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "machine.nproc", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a workload run prints as the last
// line of its standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is what a run of one workload produced, before it is
// matched against the catalogue.
type measurement struct {
	checks, failed int64
	values         map[string]float64
	notes          []string
}

func (m *measurement) set(name string, v float64) { m.values[name] = v }

// result matches the measured values against the declared metrics:
// every declared metric must have been measured, and nothing else.
func (m *measurement) result(defs []metricDef) (*runResult, error) {
	res := &runResult{
		Correct:   m.checks > 0 && m.failed == 0,
		Attempted: m.checks,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(m.values) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d declared metrics", len(m.values), len(defs))
	}
	if m.checks == 0 {
		return nil, fmt.Errorf("no output was checked against the reference")
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set, VmHWM of
// /proc/self/status; ok is false where that file has no such line.
func peakRSSMB() (float64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, false
			}
			return kb * 1024 / 1e6, true
		}
	}
	return 0, false
}
