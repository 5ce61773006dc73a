package simengine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"c2nn/internal/compile"
	"c2nn/internal/exec/backend"
	"c2nn/internal/nn"
	"c2nn/internal/tensor"
)

// portsSrc has one input and one inverted output at each port width the
// battery covers: one word and less, exactly one word, just over one,
// a partial second word, and eight words.
const portsSrc = `
module ports(input clk,
  input a1, input [7:0] a8, input [63:0] a64, input [64:0] a65,
  input [79:0] a80, input [511:0] a512,
  output y1, output [7:0] y8, output [63:0] y64, output [64:0] y65,
  output [79:0] y80, output [511:0] y512);
  assign y1 = ~a1;
  assign y8 = ~a8;
  assign y64 = ~a64;
  assign y65 = ~a65;
  assign y80 = ~a80;
  assign y512 = ~a512;
endmodule`

var builtins struct {
	sync.Mutex
	res map[string]*compile.Result
}

// builtin compiles a built-in circuit at L=4 once per test binary.
func builtin(t *testing.T, name string) *compile.Result {
	t.Helper()
	builtins.Lock()
	defer builtins.Unlock()
	if r := builtins.res[name]; r != nil {
		return r
	}
	src, err := compile.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := compile.Run(src, compile.Options{L: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if builtins.res == nil {
		builtins.res = map[string]*compile.Result{}
	}
	builtins.res[name] = r
	return r
}

// randomPort draws a port value for lanes lanes in the Cycle layout,
// with every bit of every word random — bits above the width included,
// which SetInput must ignore.
func randomPort(rng *rand.Rand, width, lanes int) []uint64 {
	vals := make([]uint64, lanes*((width+63)/64))
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	return vals
}

func bitOf(vals []uint64, stride, lane, i int) bool {
	return vals[lane*stride+i/64]>>uint(i%64)&1 == 1
}

// TestPortBattery drives every port of a synthetic one-port-per-width
// circuit and of AES and SHA through SetInput and GetOutput on every
// substrate at batches around the 64-lane word boundary: every lane and
// bit SetInput writes is the one PeekUnit reads, lanes the values do
// not reach and bit-packed lanes past the batch read zero, GetOutput
// equals GetOutputBits lane for lane with nothing above the width, and
// the synthetic circuit's outputs are the inverted inputs.
func TestPortBattery(t *testing.T) {
	_, synthetic, _ := buildModel(t, portsSrc, "ports", 4)
	models := []struct {
		name  string
		model *nn.Model
	}{{"ports", synthetic}, {"AES", builtin(t, "AES").Model}, {"SHA", builtin(t, "SHA").Model}}
	for _, m := range models {
		for _, prec := range backend.Kinds() {
			for _, batch := range []int{1, 63, 64, 65, 256} {
				t.Run(fmt.Sprintf("%s/%v/%d", m.name, prec, batch), func(t *testing.T) {
					portBattery(t, m.model, prec, batch)
				})
			}
		}
	}
}

func portBattery(t *testing.T, model *nn.Model, prec Precision, batch int) {
	eng, err := New(model, Options{Batch: batch, Workers: 1, Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(int64(batch)))
	inputs := map[string][]uint64{}
	for _, in := range model.Inputs {
		w := len(in.Units)
		stride := (w + 63) / 64
		// A short value first: the lanes it does not reach read zero.
		short := randomPort(rng, w, batch/2)
		if err := eng.SetInput(in.Name, short); err != nil {
			t.Fatal(err)
		}
		for lane := range batch {
			for i, u := range in.Units {
				want := lane < batch/2 && bitOf(short, stride, lane, i)
				if eng.PeekUnit(u, lane) != want {
					t.Fatalf("short %s lane %d bit %d: read %v, want %v", in.Name, lane, i, !want, want)
				}
			}
		}
		vals := randomPort(rng, w, batch)
		if err := eng.SetInput(in.Name, vals); err != nil {
			t.Fatal(err)
		}
		for lane := range batch {
			for i, u := range in.Units {
				if want := bitOf(vals, stride, lane, i); eng.PeekUnit(u, lane) != want {
					t.Fatalf("%s lane %d bit %d: PeekUnit %v, SetInput wrote %v", in.Name, lane, i, !want, want)
				}
			}
		}
		if prec == BitPacked {
			for lane := batch; lane < 64*tensor.PackedWords(batch); lane++ {
				for i, u := range in.Units {
					if eng.PeekUnit(u, lane) {
						t.Fatalf("%s bit %d: lane %d beyond the batch of %d is set", in.Name, i, lane, batch)
					}
				}
			}
		}
		inputs[in.Name] = vals
	}
	eng.Forward()
	for _, out := range model.Outputs {
		w := len(out.Units)
		stride := (w + 63) / 64
		got, err := eng.GetOutput(out.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != batch*stride {
			t.Fatalf("GetOutput(%s): %d words, want %d lanes × %d", out.Name, len(got), batch, stride)
		}
		for lane := range batch {
			bits, err := eng.GetOutputBits(out.Name, lane)
			if err != nil {
				t.Fatal(err)
			}
			for i, bit := range bits {
				if bitOf(got, stride, lane, i) != bit {
					t.Fatalf("%s lane %d bit %d: GetOutput %v, GetOutputBits %v", out.Name, lane, i, !bit, bit)
				}
			}
			if w%64 != 0 && got[lane*stride+stride-1]>>uint(w%64) != 0 {
				t.Fatalf("%s lane %d: bits above the width %d are set: %#x", out.Name, lane, w, got[lane*stride+stride-1])
			}
			if in, ok := inputs["a"+out.Name[1:]]; ok {
				for i := range w {
					if bitOf(got, stride, lane, i) == bitOf(in, stride, lane, i) {
						t.Fatalf("%s lane %d bit %d is not the inverted input", out.Name, lane, i)
					}
				}
			}
		}
	}
}

// TestSetInputDoesNotAllocate: loading a port is one gather into the
// arena at every width, on every substrate.
func TestSetInputDoesNotAllocate(t *testing.T) {
	_, model, _ := buildModel(t, portsSrc, "ports", 4)
	for _, prec := range backend.Kinds() {
		eng, err := New(model, Options{Batch: 65, Workers: 1, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range model.Inputs {
			vals := randomPort(rand.New(rand.NewSource(1)), len(in.Units), 65)
			if n := testing.AllocsPerRun(20, func() { eng.SetInput(in.Name, vals) }); n != 0 {
				t.Errorf("%v: SetInput(%s) allocates %v times", prec, in.Name, n)
			}
		}
		eng.Close()
	}
}

// TestLoadShortStimulus: a stimulus with fewer lanes than the engine
// loads its lanes and leaves the rest zero at every width — SHA's
// 512-bit block included.
func TestLoadShortStimulus(t *testing.T) {
	model := builtin(t, "SHA").Model
	eng, err := New(model, Options{Batch: 8, Precision: BitPacked})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, in := range model.Inputs {
		if err := eng.SetInputBits(in.Name, 6, slices.Repeat([]bool{true}, len(in.Units))); err != nil {
			t.Fatal(err)
		}
	}
	stim := NewStimulus(model, 4, 3)
	c := stim.Next(nil)
	if err := stim.Load(eng, c); err != nil {
		t.Fatal(err)
	}
	for p, in := range model.Inputs {
		for lane := range 8 {
			for i, u := range in.Units {
				want := lane < 4 && stim.Bits(c, p, lane)[i]
				if eng.PeekUnit(u, lane) != want {
					t.Fatalf("%s (%d bits) lane %d bit %d: read %v, want %v", in.Name, len(in.Units), lane, i, !want, want)
				}
			}
		}
	}
}
