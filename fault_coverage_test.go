package c2nn

// Acceptance test of the fault subsystem: grading the shipped smoke
// testbenches must report the exact same detected-fault sets on all
// three execution backends — fault detection is a bit-level diff
// against the golden lane, so any backend divergence shows up as a
// detection difference here. The network graded is the canonical one;
// on uart_smoke.tb its Fig. 5 merge must detect the same set.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c2nn/internal/circuits"
	"c2nn/internal/fault"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/testbench"
)

func TestFaultDetectionBackendIdentical(t *testing.T) {
	tbs := []string{"uart_smoke.tb", "spi_smoke.tb", "dma_smoke.tb"}
	limit := 200
	if testing.Short() {
		tbs = tbs[:1]
		limit = 60
	}
	for _, tb := range tbs {
		t.Run(tb, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testbenches", tb))
			if err != nil {
				t.Fatal(err)
			}
			script, err := testbench.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			name := strings.ToUpper(strings.SplitN(tb, "_", 2)[0])
			c, err := circuits.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			nl, err := c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			model, err := nn.Build(nl, m, nn.BuildOptions{L: 4})
			if err != nil {
				t.Fatal(err)
			}
			u := fault.Enumerate(m.Graph, len(model.Feedback))
			// Bound the runtime: grade a strided sample of `limit`
			// simulated classes. A stride (rather than a prefix) spreads
			// the sample across the whole circuit so it includes faults
			// the smoke stimuli actually reach; the differential property
			// holds per class, so a sample is as discriminating per fault
			// as the full set.
			sims := u.SimulatedClasses()
			if len(sims) > limit {
				stride := (len(sims) + limit - 1) / limit
				for pos, ci := range sims {
					if pos%stride != 0 {
						u.Classes[ci].Status = fault.Dominated
					}
				}
			}

			var ref *fault.Report
			for _, prec := range backendPrecisions {
				rep, err := fault.Grade(model, m.Graph, u, script, fault.Config{
					Precision:    prec,
					Batch:        32,
					RandomCycles: 16,
					Seed:         5,
				})
				if err != nil {
					t.Fatalf("%v: %v", prec, err)
				}
				if rep.Detected+rep.Undetected != rep.Simulated {
					t.Errorf("%v: detected %d + undetected %d != simulated %d",
						prec, rep.Detected, rep.Undetected, rep.Simulated)
				}
				if rep.Detected == 0 {
					t.Errorf("%v: smoke testbench detected nothing", prec)
				}
				if ref == nil {
					ref = rep
					continue
				}
				if !reflect.DeepEqual(ref.DetectedFaults, rep.DetectedFaults) {
					t.Errorf("%v detected set differs from %v:\n%v\n%v",
						prec, backendPrecisions[0], rep.DetectedFaults, ref.DetectedFaults)
				}
				if !reflect.DeepEqual(ref.UndetectedFaults, rep.UndetectedFaults) {
					t.Errorf("%v undetected set differs from %v", prec, backendPrecisions[0])
				}
			}
			if tb != "uart_smoke.tb" {
				return
			}
			merged, err := nn.Merge(model)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fault.Grade(merged, m.Graph, u, script, fault.Config{
				Precision: backendPrecisions[0], Batch: 32, RandomCycles: 16, Seed: 5,
			})
			if err != nil {
				t.Fatalf("merged: %v", err)
			}
			if !reflect.DeepEqual(ref.DetectedFaults, rep.DetectedFaults) {
				t.Errorf("merged network detects a different set:\n%v\n%v", rep.DetectedFaults, ref.DetectedFaults)
			}
		})
	}
}
