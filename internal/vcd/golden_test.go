package vcd_test

// Golden-file test: replaying the shipped UART smoke testbench with a
// VCD capture attached must reproduce the checked-in waveform byte for
// byte (after normalising the $date header). This pins the writer's
// framing (header, identifier codes, change compression) AND the
// engine's cycle-by-cycle output trajectory at once; regenerate with
//
//	go test ./internal/vcd -run Golden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"c2nn/internal/circuits"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/testbench"
	"c2nn/internal/vcd"
)

var update = flag.Bool("update", false, "rewrite the golden VCD file")

var dateBlock = regexp.MustCompile(`(?s)\$date.*?\$end\n`)

func normalizeVCD(b []byte) []byte {
	return dateBlock.ReplaceAll(b, []byte("$date <normalized> $end\n"))
}

func TestUARTSmokeGoldenVCD(t *testing.T) {
	c, err := circuits.ByName("UART")
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
	if model, err = nn.Merge(model); err != nil { // the golden file probes the merged network's units
		t.Fatal(err)
	}
	eng, err := simengine.New(model, simengine.Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	src, err := os.ReadFile(filepath.Join("..", "..", "testbenches", "uart_smoke.tb"))
	if err != nil {
		t.Fatal(err)
	}
	script, err := testbench.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	widths := make(map[string]int)
	for _, p := range model.Outputs {
		widths[p.Name] = len(p.Units)
	}
	tracer := vcd.NewPortTracer(vcd.NewWriter(&buf, "1ns", model.CircuitName), widths)

	sample := make(map[string]uint64)
	_, err = script.RunOpts(eng, testbench.RunOptions{
		Trace: func(s int) error {
			for _, p := range model.Outputs {
				v, err := eng.GetOutput(p.Name)
				if err != nil {
					return err
				}
				sample[p.Name] = v[0]
			}
			tracer.Sample(uint64(s), sample)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("testbench run: %v", err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "uart_smoke.vcd")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	got, want := normalizeVCD(buf.Bytes()), normalizeVCD(want)
	if !bytes.Equal(got, want) {
		t.Errorf("VCD capture diverges from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}
