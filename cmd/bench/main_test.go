package main

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"c2nn/internal/bench"
)

// An unset flag means the suite's own default and a set flag reaches
// every suite: the drift the per-suite plumbing hid (-L defaulting to
// "3,7,11" over equiv's {4,7,11}, -batch 256 over every suite's own
// batch, -L ignored by backends/analyze/activity/faults) cannot come
// back.
func TestFlagsOverrideOnlyWhenSet(t *testing.T) {
	for i := range bench.Suites {
		s := &bench.Suites[i]
		def, err := s.Env(false)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			args []string
			want bench.Env
		}{
			{nil, *def},
			{[]string{"-q", "-out", "x.json"}, *def},
			{[]string{"-L", "5, 6"}, bench.Env{Circuits: def.Circuits, Ls: []int{5, 6}, Batch: def.Batch,
				MinMeasure: def.MinMeasure, VerifyCycles: def.VerifyCycles, Seed: def.Seed}},
			{[]string{"-batch", "32", "-min-ms", "7", "-verify-cycles", "0"}, bench.Env{Circuits: def.Circuits, Ls: def.Ls,
				Batch: 32, MinMeasure: 7 * time.Millisecond, VerifyCycles: 0, Seed: def.Seed}},
		}
		for _, tc := range cases {
			o := newOptions()
			if err := o.fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := o.env(s, false)
			if err != nil {
				t.Fatalf("%s %v: %v", s.Name, tc.args, err)
			}
			if !reflect.DeepEqual(got.Ls, tc.want.Ls) || got.Batch != tc.want.Batch ||
				got.MinMeasure != tc.want.MinMeasure || got.VerifyCycles != tc.want.VerifyCycles ||
				len(got.Circuits) != len(tc.want.Circuits) {
				t.Errorf("%s %v: env = %+v, want %+v", s.Name, tc.args, got, tc.want)
			}
		}

		o := newOptions()
		o.fs.Parse([]string{"-circuits", "spi, UART"})
		got, err := o.env(s, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Circuits) != 2 || got.Circuits[0].Name != "SPI" || got.Circuits[1].Name != "UART" {
			t.Errorf("%s -circuits spi,UART under `all`: %d circuits", s.Name, len(got.Circuits))
		}
	}
	o := newOptions()
	o.fs.Parse([]string{"-L", "x"})
	if _, err := o.env(&bench.Suites[0], false); err == nil {
		t.Error("-L x accepted")
	}
	o = newOptions()
	o.fs.Parse([]string{"-circuits", "nope"})
	if _, err := o.env(&bench.Suites[0], false); err == nil {
		t.Error("-circuits nope accepted")
	}
}

// The flag surface is the documented nine-or-fewer; the per-suite mode
// and -*-out flags are gone, not aliased.
func TestFlagSurface(t *testing.T) {
	o := newOptions()
	n := 0
	o.fs.VisitAll(func(*flag.Flag) { n++ })
	if n > 9 {
		t.Errorf("%d flags, want at most 9", n)
	}
	for _, old := range []string{"table1", "backends", "json", "all", "equiv-out", "analyze-out", "activity-out", "telemetry-out"} {
		if o.fs.Lookup(old) != nil {
			t.Errorf("retired flag -%s is back", old)
		}
	}
}
