package testbench

// Negative-path tests for the script parser and runner: every error a
// user can hit must carry the 1-based script line number, and wide
// (>64-bit) output ports are checked at their full width.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
)

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown directive", "step\npoke q 1\n", `line 2: unknown directive "poke"`},
		{"malformed hex", "set a 0xzz\n", `line 1: bad value "0xzz"`},
		{"malformed binary", "\n\nset a 0b12\n", `line 3: bad value "0b12"`},
		{"bad step count", "step 2\nstep nope\n", `line 2: bad step count "nope"`},
		{"negative step count", "step -3\n", `line 1: bad step count "-3"`},
		{"missing operands", "eval\nset a\n", "line 2: set needs a port and at least one value"},
		{"expect_all multi-value", "expect_all q 1 2\n", "line 1: expect_all takes exactly one value"},
		{"comment does not hide error", "# fine\nbogus\n", `line 2: unknown directive "bogus"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) accepted", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse(%q) error = %q, want substring %q", tc.src, err, tc.want)
			}
		})
	}
}

func TestRunErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		batch int
		src   string
		want  string
	}{
		{"unknown input port", 2, "set rst 1\nset ghost 1\n", "line 2:"},
		{"unknown output port", 2, "set rst 1\neval\nexpect ghost 1\n", "line 3:"},
		{"set exceeds batch lanes", 2, "set en 1 0 1\n", "line 1: 3 values for a batch of 2 lanes"},
		{"expect exceeds batch lanes", 2, "set rst 1\neval\nexpect q 0 0 0 0\n", "line 3: 4 values for a batch of 2 lanes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := counterEngine(t, tc.batch)
			script, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = script.Run(eng)
			if err == nil {
				t.Fatalf("Run(%q) succeeded", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run(%q) error = %q, want substring %q", tc.src, err, tc.want)
			}
			// Every runner error names the offending port or lane count
			// after the line prefix; "ghost" cases must mention the port.
			if strings.Contains(tc.name, "port") && !strings.Contains(err.Error(), "ghost") {
				t.Errorf("Run(%q) error = %q does not name the port", tc.src, err)
			}
		})
	}
}

// wideEngine compiles a circuit whose output bus is wider than 64 bits
// (5 x 16 = 80), built from narrow inputs with a concatenation, so
// GetOutput returns two words per lane.
func wideEngine(t *testing.T, batch int) *simengine.Engine {
	t.Helper()
	nl, err := synth.ElaborateSource("wide", map[string]string{"w.v": `
module wide(input [15:0] a, input [15:0] b, output [79:0] y);
  assign y = {a & b, a | b, a ^ b, a, b};
endmodule`})
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
	if w := len(model.Outputs[0].Units); w != 80 {
		t.Fatalf("output width = %d, want 80", w)
	}
	eng, err := simengine.New(model, simengine.Options{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestExpectWidePort: expect reads a wide port at full width — its
// uint64 value is the low word and every higher bit must be 0 — and
// expectbits takes the whole 80-bit value.
func TestExpectWidePort(t *testing.T) {
	eng := wideEngine(t, 2)
	// a=0x00ff, b=0xff00: y = {a&b, a|b, a^b, a, b}
	// = 0000_ffff_ffff_00ff_ff00, so y[79:64] is all-zero.
	// a=b=0xffff: y = ffff_ffff_0000_ffff_ffff.
	script, err := Parse(`
set a 0x00ff
set b 0xff00
eval
expect y 0xffffffff00ffff00
expect_all y 0xffffffff00ffff00
expectbits y 0x0000ffffffff00ffff00
set a 0xffff
set b 0xffff
expectbits y 0xffffffff0000ffffffff
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := script.Run(eng)
	if err != nil {
		t.Fatalf("wide expect failed: %v", err)
	}
	// expect checks 1 lane, expect_all and each expectbits both.
	if res.Checks != 7 {
		t.Errorf("checks = %d, want 7", res.Checks)
	}
}

func TestExpectWidePortMismatchLow(t *testing.T) {
	eng := wideEngine(t, 2)
	script, err := Parse("set a 0x00ff\nset b 0xff00\neval\nexpect y 0xffffffff00ffff01\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = script.Run(eng)
	if err == nil {
		t.Fatal("mismatch accepted")
	}
	for _, want := range []string{"line 4:", "y lane 0 bit 0", "80 bits wide"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error = %q, want substring %q", err, want)
		}
	}
}

func TestExpectWidePortMismatchHighBits(t *testing.T) {
	eng := wideEngine(t, 2)
	// a=b=0xffff sets y[79:64] = a&b = 0xffff; a uint64 expectation can
	// never cover bits >= 64, so even with the low word matching
	// ({a|b, a^b, a, b} = ffff_0000_ffff_ffff) the check must fail on
	// the first high bit.
	script, err := Parse("set a 0xffff\nset b 0xffff\neval\nexpect y 0xffff0000ffffffff\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = script.Run(eng)
	if err == nil {
		t.Fatal("nonzero high bits accepted")
	}
	if !strings.Contains(err.Error(), "bit 64 = 1, want 0") {
		t.Errorf("error = %q, want it to flag bit 64", err)
	}
}

// FuzzParse pins the parser on hostile scripts: it never panics, every
// error names a line of the input, and an accepted script's directives
// carry ascending lines of the input.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../testbenches/*.tb")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed testbenches: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, line := range []string{
		"set a 1 0x2 0b11", "step", "step 3", "eval", "expect q 1 2", "expect_all q 0",
		"reset", "setff 0 1", "expectff 2 0", "setbits k 0x0123456789abcdef01", "expectbits k 0b1_0",
		"set a # no value", "step 0", "setff -1 1", "setbits k 0x", "poke q 1",
	} {
		f.Add(line + "\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		lines := strings.Count(src, "\n") + 1
		s, err := Parse(src)
		if err != nil {
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "line %d:", &n); serr != nil || n < 1 || n > lines {
				t.Fatalf("error %q names no line of a %d-line script", err, lines)
			}
			return
		}
		prev := 0
		for _, d := range s.Directives {
			if d.Line <= prev || d.Line > lines {
				t.Fatalf("directive line %d after %d in a %d-line script", d.Line, prev, lines)
			}
			prev = d.Line
		}
	})
}

// TestRunOptsAllocations: the runner lays every value out in one reused
// buffer, so set, setbits and step allocate nothing per directive and an
// expect allocates only the value GetOutput returns.
func TestRunOptsAllocations(t *testing.T) {
	eng := wideEngine(t, 70)
	const prefix = "set a 0x00ff\nset b 0xff00\neval\n"
	for _, tc := range []struct {
		directive string
		max       float64
	}{
		{"set a 0x00ff 0x0f 0xf0", 0},
		{"setbits b 0xff00", 0},
		{"step", 0},
		{"expect y 0xffffffff00ffff00 0xffffffff00ffff00", 1},
		{"expect_all y 0xffffffff00ffff00", 1},
		{"expectbits y 0x0000ffffffff00ffff00", 1},
	} {
		allocs := func(n int) float64 {
			script, err := Parse(prefix + strings.Repeat(tc.directive+"\n", n))
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(10, func() {
				if _, err := script.Run(eng); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Differencing two lengths cancels the per-run set-up, the one
		// growth of the value buffer included.
		const n = 64
		if per := (allocs(2*n) - allocs(n)) / n; per > tc.max {
			t.Errorf("%q: %.2f allocations per directive, want <= %v", tc.directive, per, tc.max)
		}
	}
}
