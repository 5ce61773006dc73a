package simengine

import (
	"math/rand"

	"c2nn/internal/nn"
)

// Stimulus is the one random-stimulus source: a seeded generator over a
// model's input ports. Everything that drives a model with random
// values — Verify, the bench harness's pre-generated sets, fault
// grading's random rounds, the c2nn subcommands — draws from it, so one
// seed gives every consumer the same stream and every bit of every port
// is driven, whatever the port's width.
type Stimulus struct {
	Ports []nn.PortMap // the model's input ports, in Cycle order
	Lanes int
	rng   *rand.Rand
	bits  []bool   // scratch returned by Bits
	wide  []uint64 // scratch of Load's broadcast lanes
}

// Cycle holds one clock cycle of stimulus: Cycle[p] is input port p's
// values, lane after lane. A lane takes ceil(width/64) words, least
// significant first — the one port layout Engine.SetInput takes and
// Engine.GetOutput returns, at every width.
type Cycle [][]uint64

// NewStimulus creates the generator for the model's input ports with
// the given number of lanes.
func NewStimulus(model *nn.Model, lanes int, seed int64) *Stimulus {
	return &Stimulus{Ports: model.Inputs, Lanes: lanes, rng: rand.New(rand.NewSource(seed))}
}

// Next draws the next cycle into c — allocated when nil — and returns
// it. Draw order is port, lane, word.
func (s *Stimulus) Next(c Cycle) Cycle {
	if c == nil {
		c = make(Cycle, len(s.Ports))
		for p, port := range s.Ports {
			c[p] = make([]uint64, s.Lanes*((len(port.Units)+63)/64))
		}
	}
	for p, port := range s.Ports {
		w := len(port.Units)
		words := (w + 63) / 64
		for i := range c[p] {
			v := s.rng.Uint64()
			if w%64 != 0 && i%words == words-1 {
				v &= 1<<uint(w%64) - 1
			}
			c[p][i] = v
		}
	}
	return c
}

// Bits returns port p of one lane of c at full width, LSB first. The
// slice is reused by the next call.
func (s *Stimulus) Bits(c Cycle, p, lane int) []bool {
	w := len(s.Ports[p].Units)
	vals := c[p][lane*((w+63)/64):]
	s.bits = s.bits[:0]
	for i := 0; i < w; i++ {
		s.bits = append(s.bits, vals[i/64]>>uint(i%64)&1 == 1)
	}
	return s.bits
}

// Load loads c into the engine, one SetInput per port; engine lanes the
// generator has none for read as zero. A one-lane generator is the
// uniform form: its lane is broadcast to every lane of the engine — the
// identical stimuli fault grading needs.
func (s *Stimulus) Load(eng *Engine, c Cycle) error {
	for p, port := range s.Ports {
		vals := c[p]
		if s.Lanes == 1 {
			s.wide = s.wide[:0]
			for range eng.Batch() {
				s.wide = append(s.wide, vals...)
			}
			vals = s.wide
		}
		if err := eng.SetInput(port.Name, vals); err != nil {
			return err
		}
	}
	return nil
}

// Poke loads one lane of c into a scalar reference simulator
// (gatesim.Sim, gatesim.EventSim).
func (s *Stimulus) Poke(sim interface {
	PokeBits(name string, bits []bool) error
}, c Cycle, lane int) error {
	for p, port := range s.Ports {
		if err := sim.PokeBits(port.Name, s.Bits(c, p, lane)); err != nil {
			return err
		}
	}
	return nil
}
