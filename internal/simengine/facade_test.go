package simengine

import (
	"math/rand"
	"slices"
	"testing"

	"time"
)

// wideSrc has a 96-bit output bus, wider than a uint64 lane.
const wideSrc = `
module wide(input clk, input [7:0] a, output [95:0] y);
  assign y = {12{a}};
endmodule`

func TestBitPackedMatchesFloat32(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 5)
	for _, batch := range []int{1, 16, 67} {
		ef, err := New(model, Options{Batch: batch, Precision: Float32})
		if err != nil {
			t.Fatal(err)
		}
		eb, err := New(model, Options{Batch: batch, Precision: BitPacked})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		for cyc := 0; cyc < 40; cyc++ {
			for _, port := range []string{"clk", "rst", "en", "din"} {
				vals := make([]uint64, batch)
				for b := range vals {
					switch port {
					case "rst":
						vals[b] = uint64(b2i(cyc == 0))
					case "en":
						vals[b] = uint64(rng.Intn(2))
					default:
						vals[b] = uint64(rng.Intn(256))
					}
				}
				ef.SetInput(port, vals)
				eb.SetInput(port, vals)
			}
			ef.Step()
			eb.Step()
			ef.Forward()
			eb.Forward()
			for _, port := range []string{"crc", "match"} {
				a, _ := ef.GetOutput(port)
				b, _ := eb.GetOutput(port)
				for l := range a {
					if a[l] != b[l] {
						t.Fatalf("batch %d cycle %d lane %d: float=%#x bitpacked=%#x",
							batch, cyc, l, a[l], b[l])
					}
				}
			}
		}
		ef.Close()
		eb.Close()
	}
}

// TestWidePortFullWidth: GetOutput returns a 96-bit port at full width,
// two words per lane, equal to GetOutputBits lane for lane.
func TestWidePortFullWidth(t *testing.T) {
	_, model, _ := buildModel(t, wideSrc, "wide", 4)
	eng, err := New(model, Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SetInput("a", []uint64{0xA5, 0x3C}); err != nil {
		t.Fatal(err)
	}
	eng.Forward()
	got, err := eng.GetOutput("y")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0xA5A5A5A5A5A5A5A5, 0xA5A5A5A5, 0x3C3C3C3C3C3C3C3C, 0x3C3C3C3C}
	if !slices.Equal(got, want) {
		t.Fatalf("GetOutput(y) = %#x, want %#x", got, want)
	}
	for lane := range 2 {
		bits, err := eng.GetOutputBits("y", lane)
		if err != nil {
			t.Fatal(err)
		}
		for i, bit := range bits {
			if bit != (got[2*lane+i/64]>>uint(i%64)&1 == 1) {
				t.Fatalf("lane %d bit %d: GetOutputBits %v, GetOutput disagrees", lane, i, bit)
			}
		}
	}
}

func TestSetInputBits(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	for _, prec := range []Precision{Float32, Int32, BitPacked} {
		eng, err := New(model, Options{Batch: 3, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		bits := []bool{true, false, true, true} // 0x0D, upper bits default to 0
		if err := eng.SetInputBits("din", 1, bits); err != nil {
			t.Fatal(err)
		}
		eng.SetInputUniform("rst", 0)
		eng.SetInputUniform("en", 0)
		eng.Forward()
		// din feeds through no output directly, so check via the input
		// lanes themselves using a second engine driven with SetInput.
		ref, err := New(model, Options{Batch: 3, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		ref.SetInput("din", []uint64{0, 0x0D, 0})
		ref.SetInputUniform("rst", 0)
		ref.SetInputUniform("en", 0)
		ref.Forward()
		pm := model.FindInput("din")
		for i, unit := range pm.Units {
			for b := 0; b < 3; b++ {
				got := eng.be.Get(eng.plan.Slot[unit], b)
				want := ref.be.Get(ref.plan.Slot[unit], b)
				if got != want {
					t.Fatalf("%v: din bit %d lane %d: SetInputBits %v, SetInput %v", prec, i, b, got, want)
				}
			}
		}
		if err := eng.SetInputBits("din", 5, bits); err == nil {
			t.Fatalf("%v: out-of-range lane accepted", prec)
		}
		if err := eng.SetInputBits("nope", 0, bits); err == nil {
			t.Fatalf("%v: unknown port accepted", prec)
		}
		eng.Close()
		ref.Close()
	}
}

// TestResetClearsUninitialisedState runs the engine until flip-flops
// hold non-zero values, resets, and requires the very first Forward to
// see all non-Init Q lanes at zero again.
func TestResetClearsUninitialisedState(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	for _, prec := range []Precision{Float32, Int32, BitPacked} {
		eng, err := New(model, Options{Batch: 2, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetInputUniform("rst", 0)
		eng.SetInputUniform("en", 1)
		eng.SetInputUniform("din", 0xFF)
		for i := 0; i < 6; i++ {
			eng.Step()
		}
		dirty := false
		for _, fb := range model.Feedback {
			for b := 0; b < 2; b++ {
				if eng.be.Get(eng.plan.Slot[fb.ToPI], b) {
					dirty = true
				}
			}
		}
		if !dirty {
			t.Fatalf("%v: run left no flip-flop state to clear", prec)
		}
		eng.Reset()
		for _, fb := range model.Feedback {
			for b := 0; b < 2; b++ {
				got := eng.be.Get(eng.plan.Slot[fb.ToPI], b)
				if got != fb.Init {
					t.Fatalf("%v: after Reset, Q lane of unit %d is %v, want %v",
						prec, fb.ToPI, got, fb.Init)
				}
			}
		}
		eng.Close()
	}
}

func TestThroughputGuards(t *testing.T) {
	if got := Throughput(0, 10, 8, time.Second); got != 0 {
		t.Fatalf("zero gates: got %v", got)
	}
	if got := Throughput(-5, 10, 8, time.Second); got != 0 {
		t.Fatalf("negative gates: got %v", got)
	}
	if got := Throughput(100, 10, 8, 0); got != 0 {
		t.Fatalf("zero elapsed: got %v", got)
	}
	if got := Throughput(100, 10, 8, time.Second); got != 8000 {
		t.Fatalf("throughput: got %v, want 8000", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	_, model, _ := buildModel(t, crcSrc, "crc8", 4)
	eng, err := New(model, Options{Batch: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.Close()
	eng.Close()
}
