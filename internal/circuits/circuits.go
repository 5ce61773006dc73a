// Package circuits generates the six benchmark designs of the paper's
// evaluation (Table I): AES, SHA-256, SPI, UART, DMA and a RISC-V bus
// interface. The originals are proprietary industrial designs; these are
// functional equivalents of the same module classes, emitted as genuine
// Verilog source and compiled through this repository's own frontend —
// the crypto cores are additionally validated bit-exactly against Go's
// standard library implementations (see the package tests).
package circuits

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"c2nn/internal/netlist"
	"c2nn/internal/synth"
)

// Circuit describes one benchmark design.
type Circuit struct {
	// Name is the Table I circuit name.
	Name string
	// Top is the top-level module name.
	Top string
	// Generate emits the Verilog sources (path -> contents).
	Generate func() map[string]string
	// Description is a one-line summary for CLI listings.
	Description string
}

var registry []Circuit

func register(c Circuit) { registry = append(registry, c) }

// All returns the registered circuits sorted by name.
func All() []Circuit {
	out := make([]Circuit, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the named circuit. Matching is case-insensitive and
// also accepts the first word of a multi-word name ("risc-v" selects
// "RISC-V interface").
func ByName(name string) (Circuit, error) {
	for _, c := range registry {
		if strings.EqualFold(c.Name, name) || strings.EqualFold(c.firstWord(), name) {
			return c, nil
		}
	}
	return Circuit{}, fmt.Errorf("circuits: unknown circuit %q (have %s)", name, names())
}

// ForTestbench infers the circuit a testbench script drives from its
// file name: "testbenches/uart_smoke.tb" selects UART.
func ForTestbench(path string) (Circuit, error) {
	base := strings.ToLower(filepath.Base(path))
	for _, c := range All() {
		if strings.HasPrefix(base, strings.ToLower(c.firstWord())) {
			return c, nil
		}
	}
	return Circuit{}, fmt.Errorf("circuits: cannot infer a built-in circuit from %q (have %s)", path, names())
}

func (c Circuit) firstWord() string { return strings.Fields(c.Name)[0] }

func names() string {
	var ns []string
	for _, c := range All() {
		ns = append(ns, c.Name)
	}
	return strings.Join(ns, ", ")
}

// Elaborate generates and synthesises a circuit into a netlist.
func (c Circuit) Elaborate() (*netlist.Netlist, error) {
	return synth.ElaborateSource(c.Top, c.Generate())
}

// LinesOfCode counts the Verilog LoC of the generated sources (the
// Table I "LoC" column).
func (c Circuit) LinesOfCode() int {
	total := 0
	for _, src := range c.Generate() {
		total += strings.Count(src, "\n") + 1
	}
	return total
}
