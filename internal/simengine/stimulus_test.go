package simengine

import (
	"fmt"
	"reflect"
	"testing"

	"c2nn/internal/gatesim"
)

// TestStimulusDrivesWidePorts pins the one stimulus source on the two
// circuits whose ports exceed a uint64: every bit of AES's key / pt and
// SHA's block is randomised per lane, a one-lane generator loads every
// engine lane with the same wide value, one seed is one stream, and the
// §IV-A check holds under those full-width stimuli on all three
// backends.
func TestStimulusDrivesWidePorts(t *testing.T) {
	const lanes = 5
	for _, tc := range []struct{ circuit, port string }{{"AES", "key"}, {"SHA", "block"}} {
		t.Run(tc.circuit, func(t *testing.T) {
			res := builtin(t, tc.circuit)
			model := res.Model
			p, port := -1, model.FindInput(tc.port)
			for i := range model.Inputs {
				if &model.Inputs[i] == port {
					p = i
				}
			}
			if p < 0 || len(port.Units) <= 64 {
				t.Fatalf("%s has no wide input %s", tc.circuit, tc.port)
			}

			stim, again := NewStimulus(model, lanes, 7), NewStimulus(model, lanes, 7)
			c := stim.Next(nil)
			for cyc, a := 0, c; cyc < 3; cyc, a = cyc+1, stim.Next(nil) {
				if b := again.Next(nil); !reflect.DeepEqual(a, b) {
					t.Fatalf("cycle %d: the same seed drew two streams", cyc)
				}
			}
			high := func(lane int) []bool {
				return append([]bool(nil), stim.Bits(c, p, lane)[64:]...)
			}
			set, differ := false, false
			for lane := 0; lane < lanes; lane++ {
				for _, b := range high(lane) {
					set = set || b
				}
				differ = differ || !reflect.DeepEqual(high(lane), high(0))
			}
			if !set || !differ {
				t.Fatalf("%s bits >= 64: some set = %v, lanes differ = %v; want both", tc.port, set, differ)
			}

			eng, err := New(model, Options{Batch: lanes, Precision: BitPacked})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			loaded := func(lane int) []bool {
				bits := make([]bool, len(port.Units))
				for i, u := range port.Units {
					bits[i] = eng.PeekUnit(u, lane)
				}
				return bits
			}
			if err := stim.Load(eng, c); err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < lanes; lane++ {
				if !reflect.DeepEqual(loaded(lane), stim.Bits(c, p, lane)) {
					t.Fatalf("Load: lane %d of %s differs from the generated value", lane, tc.port)
				}
			}
			one := NewStimulus(model, 1, 7)
			c = one.Next(nil)
			if err := one.Load(eng, c); err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < lanes; lane++ {
				if !reflect.DeepEqual(loaded(lane), one.Bits(c, p, 0)) {
					t.Fatalf("one-lane Load: lane %d of %s is not the generated value", lane, tc.port)
				}
			}

			prog, err := gatesim.Compile(res.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			for _, prec := range []Precision{Float32, Int32, BitPacked} {
				vr, err := Verify(model, prog, 4, Options{Batch: 3, Workers: 2, Precision: prec}, 11)
				if err != nil {
					t.Fatalf("%v: %v", prec, err)
				}
				if want := fmt.Sprint(VerifyResult{Cycles: 4, Batch: 3, Ports: 2, Compared: 4 * 3 * 2}); fmt.Sprint(vr) != want {
					t.Fatalf("%v: Verify reports %v, want %v", prec, vr, want)
				}
			}
		})
	}
}
