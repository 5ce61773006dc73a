package compile

import (
	"errors"
	"os"
	"strings"

	"c2nn/internal/circuits"
)

// Source selects what to compile: Verilog text plus the top module.
type Source struct {
	// Name labels the target in reports: the built-in circuit's name or
	// the file paths.
	Name string
	// Files maps path to Verilog text.
	Files map[string]string
	// Order fixes the parse order; nil parses in sorted path order.
	Order []string
	// Top selects the top module; empty infers the unique
	// uninstantiated module.
	Top string
}

// FromCircuit is the Source of a built-in benchmark circuit.
func FromCircuit(c circuits.Circuit) Source {
	return Source{Name: c.Name, Files: c.Generate(), Top: c.Top}
}

// Builtin selects a built-in circuit by name (see circuits.ByName for
// the matching rules).
func Builtin(name string) (Source, error) {
	c, err := circuits.ByName(name)
	if err != nil {
		return Source{}, err
	}
	return FromCircuit(c), nil
}

// ForTestbench selects the built-in circuit a testbench script drives,
// inferred from its file name ("uart_smoke.tb" selects UART).
func ForTestbench(path string) (Source, error) {
	c, err := circuits.ForTestbench(path)
	if err != nil {
		return Source{}, err
	}
	return FromCircuit(c), nil
}

// Files reads Verilog files into a Source parsed in argument order.
func Files(paths []string, top string) (Source, error) {
	src := Source{Name: strings.Join(paths, " "), Files: make(map[string]string, len(paths)), Order: paths, Top: top}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return Source{}, err
		}
		src.Files[p] = string(data)
	}
	return src, nil
}

// Targets resolves the "-all | -circuit name | file.v ..." selector
// shared by the subcommands, in that order of precedence.
func Targets(all bool, circuit string, paths []string, top string) ([]Source, error) {
	var one Source
	var err error
	switch {
	case all:
		var out []Source
		for _, c := range circuits.All() {
			out = append(out, FromCircuit(c))
		}
		return out, nil
	case circuit != "":
		one, err = Builtin(circuit)
	case len(paths) > 0:
		one, err = Files(paths, top)
	default:
		err = errors.New("no input: pass Verilog files or -circuit (see -h)")
	}
	if err != nil {
		return nil, err
	}
	return []Source{one}, nil
}
