package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readJSON decodes the JSON file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestProfileSmoke drives `c2nn profile` end to end. The -trace export
// must name every compile stage, carry per-layer kernel spans and
// exactly one run span holding the driven cycle count, and the -metrics
// dump must carry counters. An -activity run's toggle table reads the
// engine's own counters over every lane: under random stimuli at batch
// 128 each port it lists changes in some lane on (nearly) every pass.
func TestProfileSmoke(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	if out, err := capture(t, func() error {
		return runProfile([]string{"-circuit", "UART", "-backend", "bitpacked",
			"-cycles", "64", "-batch", "64", "-trace", tracePath, "-metrics", metricsPath})
	}); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}

	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	readJSON(t, tracePath, &trace)
	spans := map[string]int{}
	layers := 0
	var runArgs map[string]any
	for _, ev := range trace.TraceEvents {
		spans[ev.Name]++
		if strings.HasPrefix(ev.Name, "layer ") {
			layers++
		}
		if ev.Name == "run" {
			runArgs = ev.Args
		}
	}
	for _, stage := range strings.Fields("compile parse elaborate aig cuts tables poly network plan forward run") {
		if spans[stage] == 0 {
			t.Errorf("trace has no %q span", stage)
		}
	}
	if layers == 0 {
		t.Error("trace has no per-layer kernel spans")
	}
	if spans["run"] != 1 || runArgs["cycles"] != float64(64) {
		t.Errorf("%d run spans, last with args %v; want one with cycles 64", spans["run"], runArgs)
	}

	var metrics struct {
		Counters []json.RawMessage `json:"counters"`
	}
	readJSON(t, metricsPath, &metrics)
	if len(metrics.Counters) == 0 {
		t.Error("metrics dump has no counters")
	}

	out, err := capture(t, func() error {
		return runProfile([]string{"-circuit", "UART", "-L", "4", "-cycles", "200", "-batch", "128", "-activity"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	_, table, ok := strings.Cut(out, "root toggle rates")
	if !ok {
		t.Fatalf("no toggle table in:\n%s", out)
	}
	ports := 0
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "port ") {
			continue
		}
		f := strings.Fields(line)
		rate, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
		if err != nil {
			t.Fatalf("toggle row %q: %v", line, err)
		}
		if rate < 95 {
			t.Errorf("toggle row %q: rate below 95%% under per-lane random stimuli", line)
		}
		ports++
	}
	if ports == 0 {
		t.Errorf("toggle table lists no port:\n%s", table)
	}
}
