package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"c2nn"
	"c2nn/internal/raceflag"
)

// capture runs f with stdout and stderr redirected to a file and
// returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = tmp, tmp
	ferr := f()
	os.Stdout, os.Stderr = stdout, stderr
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

// TestCircuitNamesEverySubcommand drives every subcommand's -circuit
// flag through the one resolver: case-insensitive, first word accepted,
// unknown names rejected by name.
func TestCircuitNamesEverySubcommand(t *testing.T) {
	model := filepath.Join(t.TempDir(), "m.c2nn")
	subcommands := []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"compile", runCompile, []string{"-L", "4", "-o", model}},
		{"run", runRun, []string{"-L", "4", "-cycles", "1", "-batch", "1"}},
		{"lint", runLint, []string{"-L", "4", "-noequiv"}},
		{"analyze", runAnalyze, []string{"-L", "4"}},
		{"equiv", runEquiv, []string{"-l", "4", "-stage", "netlist-aig"}},
		{"fault", runFault, []string{"-L", "4", "-random", "1", "-limit", "1"}},
		{"profile", runProfile, []string{"-L", "4", "-cycles", "1", "-batch", "1"}},
		{"watch", runWatch, []string{"-L", "4", "-duration", "20ms", "-quiet"}},
	}
	for _, sc := range subcommands {
		for _, circuit := range []string{"UART", "uart", "risc-v", "RISC-V interface", "nope"} {
			t.Run(sc.name+"/"+circuit, func(t *testing.T) {
				if sc.name == "equiv" && strings.HasPrefix(strings.ToLower(circuit), "risc") &&
					(testing.Short() || raceflag.Enabled) {
					t.Skip("the RISC-V miter takes seconds, minutes under -race")
				}
				out, err := capture(t, func() error {
					return sc.run(append([]string{"-circuit", circuit}, sc.args...))
				})
				switch {
				case circuit == "nope" && (err == nil || !strings.Contains(err.Error(), `unknown circuit "nope"`)):
					t.Fatalf("want an unknown-circuit error, got %v", err)
				case circuit != "nope" && err != nil:
					t.Fatalf("%v\n%s", err, out)
				}
			})
		}
	}

	src, err := target("", "../../testbenches/uart_smoke.tb", "", nil)
	if err != nil || src.Name != "UART" {
		t.Errorf("uart_smoke.tb selects %q, %v; want UART", src.Name, err)
	}
	if _, err := target("", "mystery.tb", "", nil); err == nil {
		t.Error("mystery.tb selected a circuit")
	}
}

// TestCheckMatchesLint pins that -check, "c2nn lint" and
// Options.Check are one code path: on UART at L=4 they report the same
// number of diagnostics at every stage.
func TestCheckMatchesLint(t *testing.T) {
	out, err := capture(t, func() error {
		return runCompile([]string{"-circuit", "UART", "-L", "4", "-check", "-stats",
			"-o", filepath.Join(t.TempDir(), "m.c2nn")})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	fromCheck := map[string]int{}
	for _, m := range regexp.MustCompile(`; (\w+) (\d+)/(\d+)/(\d+)`).FindAllStringSubmatch(out, -1) {
		for _, n := range m[2:] {
			v, _ := strconv.Atoi(n)
			fromCheck[m[1]] += v
		}
	}

	out, err = capture(t, func() error { return runLint([]string{"-circuit", "UART", "-L", "4", "-json"}) })
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var report struct {
		ByStage map[string]struct{ Errors, Warnings, Infos int } `json:"by_stage"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	fromLint := map[string]int{}
	for stage, c := range report.ByStage {
		fromLint[stage] = c.Errors + c.Warnings + c.Infos
	}

	tr := c2nn.NewTrace()
	if _, err := c2nn.CompileBenchmark("UART", c2nn.Options{L: 4, NoMerge: true, Check: true, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	fromFacade := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Name != "lint" {
			continue
		}
		var stage string
		var n int
		for _, a := range s.Attrs {
			switch a.Key {
			case "stage":
				stage = a.Str
			case "diagnostics":
				n = int(a.Int)
			}
		}
		if n > 0 {
			fromFacade[stage] += n
		}
	}

	if len(fromLint) < 2 {
		t.Fatalf("lint reports diagnostics at %d stages, want netlist and analyze at least: %v", len(fromLint), fromLint)
	}
	if !reflect.DeepEqual(fromCheck, fromLint) {
		t.Errorf("-check -stats counts %v, lint -json counts %v", fromCheck, fromLint)
	}
	if !reflect.DeepEqual(fromFacade, fromLint) {
		t.Errorf("Options.Check counts %v, lint -json counts %v", fromFacade, fromLint)
	}
}

// TestCLICompileBytePinned is the CLI leg of the parity battery in the
// root package: "c2nn -circuit … -o" writes the pinned bytes.
func TestCLICompileBytePinned(t *testing.T) {
	data, err := os.ReadFile("../../testdata/model_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Split(line, "\t")
		if strings.HasPrefix(line, "#") || strings.Contains(f[2], "coalesce16") { // no CLI flag coalesces
			continue
		}
		path := filepath.Join(t.TempDir(), "m.c2nn")
		args := []string{"-circuit", f[0], "-L", f[1], "-o", path}
		for _, word := range strings.Split(f[2], "+") {
			if word != "default" {
				args = append(args, "-"+word)
			}
		}
		if out, err := capture(t, func() error { return runCompile(args) }); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		model, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(model)); got != f[3] {
			t.Errorf("%v: model bytes hash to %s, pinned %s", args, got, f[3])
		}
	}
}

// TestRunVerifiesWhatItRuns pins the session behind "c2nn run": -verify
// checks the backend, lane count and network it was asked about, a bad
// -backend fails before anything is compiled, and the
// network run simulates is byte for byte the one "c2nn -circuit … -o"
// writes — the canonical rows of testdata/model_sha256.txt.
func TestRunVerifiesWhatItRuns(t *testing.T) {
	out, err := capture(t, func() error {
		return runRun([]string{"-circuit", "UART", "-L", "4", "-verify", "-backend", "bitpacked", "-batch", "70", "-cycles", "8"})
	})
	if err != nil || !strings.Contains(out, "8 cycles x 70 lanes on bitpacked") {
		t.Errorf("run -verify -backend bitpacked -batch 70: %v\n%s", err, out)
	}
	_, err = capture(t, func() error {
		return runRun([]string{"-circuit", "nope", "-verify", "-backend", "nope"})
	})
	if err == nil || !strings.Contains(err.Error(), `unknown backend "nope"`) {
		t.Errorf("want the unknown-backend error before the circuit is looked at, got %v", err)
	}

	out, err = capture(t, func() error { return runRun([]string{"-circuit", "UART", "-L", "4", "-info"}) })
	if err != nil || !strings.Contains(out, "merged=false") || !strings.Contains(out, "\n17 layers") {
		t.Errorf("run -info: want the canonical 17-layer network: %v\n%s", err, out)
	}
	data, err := os.ReadFile("../../testdata/model_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Split(line, "\t")
		if strings.HasPrefix(line, "#") || f[2] != "default" || f[1] != "4" {
			continue
		}
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		s := sessionFlags(fs, "", "float32", 256)
		if err := fs.Parse([]string{"-circuit", f[0], "-L", f[1]}); err != nil {
			t.Fatal(err)
		}
		if err := s.open("", nil, nil); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if _, err := s.model.Save(h); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != f[3] {
			t.Errorf("run -circuit %s -L %s simulates a model hashing to %s, the compiler writes %s", f[0], f[1], got, f[3])
		}
	}
}

// TestRunSmoke is the run smoke, one case per command: gate-level
// equivalence on UART and on AES's 128-bit ports, random cycles through
// SHA's 512-bit block, a checked compile to a file and a run of that
// file, and the UART testbench on every backend.
func TestRunSmoke(t *testing.T) {
	model := filepath.Join(t.TempDir(), "u.c2nn")
	type smoke struct {
		run  func([]string) error
		args []string
		want string
	}
	cases := []smoke{
		{runRun, []string{"-circuit", "UART", "-L", "4", "-verify", "-cycles", "64"}, "VERIFIED: 64 cycles x 256 lanes on float32"},
		{runRun, []string{"-circuit", "AES", "-L", "4", "-verify", "-backend", "bitpacked", "-cycles", "16"}, "VERIFIED: 16 cycles x 256 lanes on bitpacked"},
		{runRun, []string{"-circuit", "SHA", "-L", "4", "-cycles", "4", "-backend", "bitpacked"}, "4 cycles x 256 lanes"},
		{runCompile, []string{"-circuit", "uart", "-L", "4", "-check", "-o", model}, "-> " + model},
		{runRun, []string{"-model", model, "-cycles", "8"}, "8 cycles x 256 lanes"},
	}
	for _, b := range []string{"float32", "int32", "bitpacked"} {
		cases = append(cases, smoke{runRun, []string{"-circuit", "UART", "-L", "4", "-tb", "../../testbenches/uart_smoke.tb", "-backend", b}, "testbench PASSED"})
	}
	for _, tc := range cases {
		out, err := capture(t, func() error { return tc.run(tc.args) })
		if err != nil || !strings.Contains(out, tc.want) {
			t.Errorf("%v: want %q: %v\n%s", tc.args, tc.want, err, out)
		}
	}
}

// TestDriveIsOneMeasurement: a testbench replay plus random cycles is one
// "run" span whose cycles attribute is the count drive returns, for any
// subcommand that attaches a trace.
func TestDriveIsOneMeasurement(t *testing.T) {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	s := sessionFlags(fs, "", "bitpacked", 8)
	if err := fs.Parse([]string{"-tb", "../../testbenches/uart_smoke.tb", "-L", "4"}); err != nil {
		t.Fatal(err)
	}
	tr := c2nn.NewTrace()
	if err := s.open("", nil, tr); err != nil {
		t.Fatal(err)
	}
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	defer s.eng.Close()
	stepped := 0
	d, err := s.drive(5, nil, func() error { stepped++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d.tb.Steps == 0 || d.cycles != d.tb.Steps+5 || stepped < d.cycles || d.elapsed <= 0 {
		t.Fatalf("drive returned %+v after %d observer calls", d, stepped)
	}
	runs := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "run" {
			continue
		}
		runs++
		for _, a := range sp.Attrs {
			if a.Key == "cycles" && int(a.Int) != d.cycles {
				t.Errorf("run span records %d cycles, drive returned %d", a.Int, d.cycles)
			}
		}
	}
	if runs != 1 {
		t.Errorf("%d run spans, want 1", runs)
	}
}
