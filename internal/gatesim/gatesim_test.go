package gatesim

import (
	"math/rand"
	"testing"

	"c2nn/internal/synth"
)

// testCircuit is a small sequential design exercising arithmetic, muxing
// and state: a multiply-accumulate with a mode selector.
const testCircuit = `
module mac(input clk, rst, input [1:0] mode, input [7:0] a, b,
           output reg [15:0] acc, output [7:0] comb);
  assign comb = (a ^ b) + {4'h0, a[7:4]};
  always @(posedge clk) begin
    if (rst) acc <= 16'd0;
    else begin
      case (mode)
        2'd0: acc <= acc + a * b;
        2'd1: acc <= acc - {8'd0, a};
        2'd2: acc <= acc ^ {b, a};
        default: acc <= acc;
      endcase
    end
  end
endmodule`

func compileTest(t *testing.T) *Program {
	t.Helper()
	nl, err := synth.ElaborateSource("mac", map[string]string{"mac.v": testCircuit})
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	p, err := Compile(nl)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// model is the Go-native reference of the mac circuit.
type model struct{ acc uint16 }

func (m *model) step(rst bool, mode, a, b uint8) {
	if rst {
		m.acc = 0
		return
	}
	switch mode % 4 {
	case 0:
		m.acc += uint16(a) * uint16(b)
	case 1:
		m.acc -= uint16(a)
	case 2:
		m.acc ^= uint16(b)<<8 | uint16(a)
	}
}

func (m *model) comb(a, b uint8) uint8 { return (a ^ b) + a>>4 }

type stimulus struct {
	rst  bool
	mode uint8
	a, b uint8
}

func randomStimuli(n int, seed int64) []stimulus {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stimulus, n)
	for i := range out {
		out[i] = stimulus{
			rst:  i == 0 || rng.Intn(40) == 0,
			mode: uint8(rng.Intn(4)),
			a:    uint8(rng.Intn(256)),
			b:    uint8(rng.Intn(256)),
		}
	}
	return out
}

func TestScalarSimAgainstModel(t *testing.T) {
	p := compileTest(t)
	s := NewSim(p)
	var m model
	for i, st := range randomStimuli(500, 1) {
		s.Poke("rst", b2u(st.rst))
		s.Poke("mode", uint64(st.mode))
		s.Poke("a", uint64(st.a))
		s.Poke("b", uint64(st.b))
		s.Step()
		m.step(st.rst, st.mode, st.a, st.b)
		s.Eval()
		acc, _ := s.Peek("acc")
		comb, _ := s.Peek("comb")
		if acc != uint64(m.acc) {
			t.Fatalf("cycle %d: acc=%d want %d", i, acc, m.acc)
		}
		if comb != uint64(m.comb(st.a, st.b)) {
			t.Fatalf("cycle %d: comb=%d want %d", i, comb, m.comb(st.a, st.b))
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestEnginesAgree(t *testing.T) {
	p := compileTest(t)
	scalar := NewSim(p)
	ev := NewEventSim(p)

	for i, st := range randomStimuli(300, 7) {
		for _, poke := range []func(string, uint64) error{scalar.Poke, ev.Poke} {
			poke("rst", b2u(st.rst))
			poke("mode", uint64(st.mode))
			poke("a", uint64(st.a))
			poke("b", uint64(st.b))
		}
		scalar.Step()
		ev.Step()
		scalar.Eval()
		ev.Eval()
		want, _ := scalar.Peek("acc")
		got, _ := ev.Peek("acc")
		if got != want {
			t.Fatalf("cycle %d: scalar=%d event=%d", i, want, got)
		}
	}
	if ev.EvalCount == 0 {
		t.Error("event sim performed no evaluations")
	}
}

func TestBatchSimMatchesScalar(t *testing.T) {
	p := compileTest(t)
	batch := NewBatchSim(p)
	scalars := make([]*Sim, 64)
	models := make([]stimulusSeq, 64)
	for l := range scalars {
		scalars[l] = NewSim(p)
		models[l] = randomStimuli(50, int64(100+l))
	}
	for cyc := 0; cyc < 50; cyc++ {
		for l := 0; l < 64; l++ {
			st := models[l][cyc]
			batch.PokeLane("rst", l, b2u(st.rst))
			batch.PokeLane("mode", l, uint64(st.mode))
			batch.PokeLane("a", l, uint64(st.a))
			batch.PokeLane("b", l, uint64(st.b))
			scalars[l].Poke("rst", b2u(st.rst))
			scalars[l].Poke("mode", uint64(st.mode))
			scalars[l].Poke("a", uint64(st.a))
			scalars[l].Poke("b", uint64(st.b))
		}
		batch.Step()
		batch.Eval()
		for l := 0; l < 64; l++ {
			scalars[l].Step()
			scalars[l].Eval()
			want, _ := scalars[l].Peek("acc")
			got, _ := batch.PeekLane("acc", l)
			if got != want {
				t.Fatalf("cycle %d lane %d: batch=%d scalar=%d", cyc, l, got, want)
			}
		}
	}
}

type stimulusSeq = []stimulus

func TestEventSimActivity(t *testing.T) {
	p := compileTest(t)
	ev := NewEventSim(p)
	// Hold inputs constant: after priming, activity should collapse to
	// (nearly) zero once the accumulator reaches a fixed point (mode 3
	// holds the accumulator).
	ev.Poke("rst", 0)
	ev.Poke("mode", 3)
	ev.Poke("a", 5)
	ev.Poke("b", 9)
	ev.Step() // priming evaluation
	before := ev.EvalCount
	for i := 0; i < 100; i++ {
		ev.Step()
	}
	after := ev.EvalCount
	perCycle := float64(after-before) / 100
	if perCycle > float64(p.NumGates())/10 {
		t.Errorf("event sim evaluated %.1f gates/cycle on a quiescent circuit (%d total)",
			perCycle, p.NumGates())
	}
	if f := ev.ActivityFactor(101); f <= 0 || f > 1 {
		t.Errorf("activity factor = %f", f)
	}
}

func TestProgramShape(t *testing.T) {
	p := compileTest(t)
	if p.NumGates() == 0 || p.Depth() == 0 {
		t.Fatalf("gates=%d depth=%d", p.NumGates(), p.Depth())
	}
	if p.Netlist().NumFFs() != 16 {
		t.Fatalf("FFs = %d, want 16", p.Netlist().NumFFs())
	}
}

func TestPokePeekErrors(t *testing.T) {
	p := compileTest(t)
	s := NewSim(p)
	if err := s.Poke("nope", 1); err == nil {
		t.Error("Poke accepted unknown port")
	}
	if _, err := s.Peek("nope"); err == nil {
		t.Error("Peek accepted unknown port")
	}
	b := NewBatchSim(p)
	if err := b.Poke("nope", nil); err == nil {
		t.Error("batch Poke accepted unknown port")
	}
	if _, err := b.Peek("nope"); err == nil {
		t.Error("batch Peek accepted unknown port")
	}
}

func TestSimReset(t *testing.T) {
	p := compileTest(t)
	s := NewSim(p)
	s.Poke("rst", 0)
	s.Poke("mode", 0)
	s.Poke("a", 3)
	s.Poke("b", 4)
	s.Step()
	s.Eval()
	if v, _ := s.Peek("acc"); v != 12 {
		t.Fatalf("acc = %d", v)
	}
	s.Reset()
	s.Eval()
	if v, _ := s.Peek("acc"); v != 0 {
		t.Fatalf("acc after reset = %d", v)
	}
}
