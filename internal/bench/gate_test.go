package bench

import (
	"slices"
	"strings"
	"testing"
)

// cleanLedger is a hand-built ledger of the four gated suites on which
// every gate holds, plus the baseline it is compared against.
func cleanLedger() (ledger, base *Ledger) {
	ledger, base = new(Ledger), new(Ledger)
	speedup := Row{Suite: "backends", Circuit: "UART", L: 4, Batch: 256, Metric: "packed_speedup", Value: 10, Unit: "ratio"}
	base.Add("backends", []Row{speedup})
	ledger.Add("backends", []Row{speedup})

	var analyze []Row
	for _, c := range []string{"UART", "SPI", "DMA"} {
		for _, l := range []int{4, 7} {
			analyze = append(analyze,
				Row{Suite: "analyze", Circuit: c, L: l, Metric: "alias_clean", Value: 1, Unit: "bool"},
				Row{Suite: "analyze", Circuit: c, L: l, Metric: "activity.dirty_fraction", Value: 0.3, Unit: "ratio"})
		}
	}
	ledger.Add("analyze", analyze)

	act := func(variant, metric string, v float64) Row {
		return Row{Suite: "activity", Circuit: "UART", L: 4, Backend: "bitpacked", Variant: variant, Batch: 128, Metric: metric, Value: v}
	}
	ledger.Add("activity", []Row{
		act("uart_smoke.tb", "equal", 1), act("uart_smoke.tb", "skip_rate", 0.7), act("uart_smoke.tb", "speedup", 2.4),
		act("dense_random", "equal", 1), act("dense_random", "skip_rate", 0), act("dense_random", "speedup", 0.95),
	})

	tel := func(metric string, v float64) Row {
		return Row{Suite: "telemetry", Circuit: "UART", L: 7, Backend: "bitpacked", Batch: 256, Metric: metric, Value: v}
	}
	ledger.Add("telemetry", []Row{tel("allocs_per_step_off", 0), tel("overhead_pct", 0.4)})
	return ledger, base
}

func check(l, base *Ledger) (bool, string) {
	var log strings.Builder
	ok := Check(l, base, &log)
	return ok, log.String()
}

func TestGatePassesCleanLedger(t *testing.T) {
	l, base := cleanLedger()
	if ok, log := check(l, base); !ok || strings.Contains(log, "FAIL") {
		t.Fatalf("clean ledger fails its gates:\n%s", log)
	}
	// Without a baseline the regression bound is a NOTE, not a failure.
	if ok, log := check(l, nil); !ok || !strings.Contains(log, "NOTE  backends: packed_speedup not checked") {
		t.Errorf("gate without baseline: ok=%v\n%s", ok, log)
	}
}

// Each gate must fail on a ledger doctored by exactly one row.
func TestGateNegatives(t *testing.T) {
	set := func(suite, variant, metric string, v float64) func(*Ledger) {
		return func(l *Ledger) {
			for i, r := range l.Rows {
				if r.Suite == suite && r.Variant == variant && r.Metric == metric {
					l.Rows[i].Value = v
					return
				}
			}
			panic("no such row")
		}
	}
	cases := []struct {
		name   string
		doctor func(*Ledger)
		want   string // substring of the FAIL line
	}{
		{"packed_speedup x0.7", set("backends", "", "packed_speedup", 7), "backends UART L=4 packed_speedup = 7, want >= 0.8 x baseline 10"},
		{"equal 0", set("activity", "dense_random", "equal", 0), "equal on dense_random = 0"},
		{"no skip on uart_smoke.tb", set("activity", "uart_smoke.tb", "skip_rate", 0), "skip_rate on uart_smoke.tb = 0, want > 0"},
		{"dense speedup 0.7", set("activity", "dense_random", "speedup", 0.7), "speedup on dense_random = 0.7, want >= 0.8"},
		{"allocs 0.5", set("telemetry", "", "allocs_per_step_off", 0.5), "allocs_per_step_off = 0.5, want < 0.01"},
		{"overhead above tolerance", set("telemetry", "", "overhead_pct", 1.5), "overhead_pct = 1.5, want <= 1"},
		{"alias_clean 0", set("analyze", "", "alias_clean", 0), "alias_clean = 0, want == 1"},
		{"five activity-stat rows", func(l *Ledger) {
			i := slices.IndexFunc(l.Rows, func(r Row) bool { return r.Metric == "activity.dirty_fraction" })
			l.Rows = slices.Delete(l.Rows, i, i+1)
		}, "analyze: 5 rows of activity.dirty_fraction, want at least 6"},
		{"uart_smoke.tb row missing", func(l *Ledger) {
			l.Rows = slices.DeleteFunc(l.Rows, func(r Row) bool { return r.Variant == "uart_smoke.tb" && r.Metric == "skip_rate" })
		}, "activity: 0 rows of skip_rate on uart_smoke.tb, want at least 1"},
		{"empty suite", func(l *Ledger) {
			l.Rows = slices.DeleteFunc(l.Rows, func(r Row) bool { return r.Suite == "telemetry" })
		}, "telemetry: no rows"},
		{"empty ledger", func(l *Ledger) { *l = Ledger{} }, "ledger lists no suites"},
		{"unknown suite", func(l *Ledger) { l.Suites = append(l.Suites, "exec") }, `unknown suite "exec"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, base := cleanLedger()
			tc.doctor(l)
			ok, log := check(l, base)
			if ok || !strings.Contains(log, "FAIL") || !strings.Contains(log, tc.want) {
				t.Errorf("ok=%v, want a FAIL line containing %q:\n%s", ok, tc.want, log)
			}
		})
	}
}

func TestGateBounds(t *testing.T) {
	// A packed_speedup drop inside the 20% band passes; a row the
	// baseline lacks is a NOTE.
	l, base := cleanLedger()
	l.Rows[0].Value = 8.5
	l.Rows = append(l.Rows, Row{Suite: "backends", Circuit: "NEW", L: 4, Batch: 256, Metric: "packed_speedup", Value: 1})
	if ok, log := check(l, base); !ok || !strings.Contains(log, "NOTE  backends NEW L=4 packed_speedup: no baseline row") {
		t.Errorf("ok=%v\n%s", ok, log)
	}
	// CI's slack on the telemetry overhead bound comes from the
	// environment; the local default is the 1% design target.
	l, base = cleanLedger()
	for i := range l.Rows {
		if l.Rows[i].Metric == "overhead_pct" {
			l.Rows[i].Value = 3
		}
	}
	if ok, _ := check(l, base); ok {
		t.Error("3% overhead passes the default 1% bound")
	}
	t.Setenv("TELEMETRY_TOL_PCT", "5")
	if ok, log := check(l, base); !ok {
		t.Errorf("3%% overhead fails with TELEMETRY_TOL_PCT=5:\n%s", log)
	}
}

// The committed baseline, converted to the row schema, is a valid
// ledger that passes the gate against itself.
func TestBaselineGatesAgainstItself(t *testing.T) {
	base, err := ReadLedger("../../results/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 || base.Meta.GoVersion == "" || !slices.Equal(base.Suites, []string{"backends"}) {
		t.Fatalf("baseline ledger incomplete: %d rows, meta %+v, suites %v", len(base.Rows), base.Meta, base.Suites)
	}
	ok, log := check(base, base)
	if !ok || strings.Count(log, "OK    backends") != 12 {
		t.Errorf("baseline does not gate cleanly against itself (want 12 OK rows):\n%s", log)
	}
}
