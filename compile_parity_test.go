package c2nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"c2nn/internal/bench"
	"c2nn/internal/circuits"
	"c2nn/internal/compile"
	"c2nn/internal/irlint"
	"c2nn/internal/raceflag"
)

// TestCompileEntryPointsBytePinned is the parity battery of the one
// compile driver: the facade, the irlint checker and the experiment
// harness must all save byte-identical models, equal to the pinned
// bytes (testdata/model_sha256.txt; cmd/c2nn pins the CLI path to the
// same table). The "merge" rows were pinned from the merged-network
// constructor nn.Merge replaced, so they also prove the pass exact.
func TestCompileEntryPointsBytePinned(t *testing.T) {
	data, err := os.ReadFile("testdata/model_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		name, variant, want := f[0], f[2], f[3]
		l, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatal(err)
		}
		if l > 4 && (testing.Short() || raceflag.Enabled) {
			continue // three L=7 compiles per row are minutes under -race
		}
		t.Run(fmt.Sprintf("%s_L%d_%s", strings.Fields(name)[0], l, variant), func(t *testing.T) {
			t.Parallel()
			c, err := circuits.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Top: c.Top, L: l, NoMerge: true}
			for _, word := range strings.Split(variant, "+") {
				switch word {
				case "default":
				case "merge":
					opts.NoMerge = false
				case "coalesce16":
					opts.CoalesceWide = 16
				default:
					t.Fatalf("unknown variant word %q", word)
				}
			}
			check := func(entry string, m *Model, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				var buf bytes.Buffer
				if _, err := m.Save(&buf); err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
					t.Errorf("%s: model bytes hash to %s, pinned %s", entry, got, want)
				}
			}
			m, err := CompileVerilog(c.Generate(), opts)
			check("c2nn.CompileVerilog", m, err)
			m, _, err = irlint.Check(compile.FromCircuit(c), opts.driver(), true)
			check("irlint.Check", m, err)
			res, err := bench.Compile(c, opts.driver())
			if err != nil {
				t.Fatalf("bench.Compile: %v", err)
			}
			check("bench.Compile", res.Model, nil)
		})
	}
}
