package main

import (
	"math/rand"

	"c2nn/internal/netlist"
)

// stim is one input port's new value in one cycle, held in the layout
// each consumer takes so that no consumer pays for a conversion inside
// its timed loop.
type stim struct {
	port  string
	width int
	// lanes holds the value per batch lane (low 64 bits): the layout of
	// Engine.SetInput and of a testbench "set" line.
	lanes []uint64
	// bits holds every bit per lane, for ports wider than 64 bits only:
	// the layout of Engine.SetInputBits.
	bits [][]bool
	// words[w][i] is bit i of the port across lanes 64w..64w+63: the
	// layout of BatchSim.Poke, one BatchSim per word.
	words [][]uint64
}

// toBitMajor transposes one value per lane into one word per bit and
// 64-lane group. Lanes beyond len(lanes) in the last word read as zero.
func toBitMajor(lanes []uint64, width int) [][]uint64 {
	words := make([][]uint64, (len(lanes)+63)/64)
	for w := range words {
		words[w] = make([]uint64, width)
	}
	for lane, v := range lanes {
		word, mask := words[lane/64], uint64(1)<<uint(lane%64)
		for i := 0; i < width && i < 64; i++ {
			if v>>uint(i)&1 == 1 {
				word[i] |= mask
			}
		}
	}
	return words
}

// toLaneMajor is the inverse of toBitMajor for ports of up to 64 bits.
func toLaneMajor(words [][]uint64, batch int) []uint64 {
	lanes := make([]uint64, batch)
	for lane := range lanes {
		word := words[lane/64]
		for i := 0; i < len(word) && i < 64; i++ {
			lanes[lane] |= word[i] >> uint(lane%64) & 1 << uint(i)
		}
	}
	return lanes
}

func uniformStim(port string, width int, v uint64, batch int) stim {
	lanes := make([]uint64, batch)
	for i := range lanes {
		lanes[i] = v
	}
	return laneStim(port, width, lanes)
}

func laneStim(port string, width int, lanes []uint64) stim {
	return stim{port: port, width: width, lanes: lanes, words: toBitMajor(lanes, width)}
}

// randomStim draws every bit of every lane uniformly.
func randomStim(rng *rand.Rand, port string, width, batch int) stim {
	if width <= 64 {
		lanes := make([]uint64, batch)
		for i := range lanes {
			lanes[i] = rng.Uint64()
			if width < 64 {
				lanes[i] &= 1<<uint(width) - 1
			}
		}
		return laneStim(port, width, lanes)
	}
	st := stim{port: port, width: width, lanes: make([]uint64, batch), bits: make([][]bool, batch)}
	st.words = make([][]uint64, (batch+63)/64)
	for w := range st.words {
		st.words[w] = make([]uint64, width)
	}
	for lane := range st.bits {
		bits := make([]bool, width)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
			if bits[i] {
				st.words[lane/64][i] |= 1 << uint(lane%64)
				if i < 64 {
					st.lanes[lane] |= 1 << uint(i)
				}
			}
		}
		st.bits[lane] = bits
	}
	return st
}

// randomStimulus is the paper's §IV random regression: rst high in
// cycle 0 and low afterwards, clk (absorbed by clock unification) never
// driven, every other input uniform-random per lane per cycle.
func randomStimulus(w workload, nl *netlist.Netlist, seed int64) [][]stim {
	rng := rand.New(rand.NewSource(seed))
	cycles := make([][]stim, w.episode)
	for c := range cycles {
		for pi := range nl.Inputs {
			port := &nl.Inputs[pi]
			switch port.Name {
			case "clk":
			case "rst":
				v := uint64(0)
				if c == 0 {
					v = 1
				}
				cycles[c] = append(cycles[c], uniformStim("rst", 1, v, w.batch))
			default:
				cycles[c] = append(cycles[c], randomStim(rng, port.Name, port.Width(), w.batch))
			}
		}
	}
	return cycles
}

// tbSlot is the length in cycles of one slot of the UART protocol
// replay. A frame is 10 bit times of 4 clocks, so with one TX frame and
// one RX frame per slot each serial line is idle for 56 of 96 cycles.
const tbSlot = 96

// uartStimulus is a protocol replay for the UART design: after a reset
// cycle, every slot queues one TX byte (a different byte in every lane),
// receives one serial RX frame at divisor 4 (again per lane) and pops
// the RX FIFO once; the rest of the slot is idle. Inputs are driven only
// when they change. The seed moves the offsets and the data, never the
// amount of work, so runs with different seeds are comparable.
func uartStimulus(w workload, seed int64) [][]stim {
	rng := rand.New(rand.NewSource(seed))
	cycles := make([][]stim, w.episode)
	add := func(c int, st stim) {
		if c < len(cycles) {
			cycles[c] = append(cycles[c], st)
		}
	}
	uniform := func(c int, port string, width int, v uint64) {
		add(c, uniformStim(port, width, v, w.batch))
	}
	randomBytes := func() []uint64 {
		lanes := make([]uint64, w.batch)
		for i := range lanes {
			lanes[i] = uint64(rng.Intn(256))
		}
		return lanes
	}

	uniform(0, "rst", 1, 1)
	uniform(0, "divisor", 16, 4)
	uniform(0, "parity_en", 1, 0)
	uniform(0, "wr_en", 1, 0)
	uniform(0, "wr_data", 8, 0)
	uniform(0, "rd_en", 1, 0)
	uniform(0, "rxd", 1, 1)
	uniform(1, "rst", 1, 0)
	for base := 2; base < w.episode; base += tbSlot {
		tx := base + rng.Intn(8)
		add(tx, laneStim("wr_data", 8, randomBytes()))
		uniform(tx, "wr_en", 1, 1)
		uniform(tx+1, "wr_en", 1, 0)

		rx, data := base+rng.Intn(8), randomBytes()
		uniform(rx, "rxd", 1, 0) // start bit
		for i := 0; i < 8; i++ {
			bit := make([]uint64, w.batch)
			for lane, v := range data {
				bit[lane] = v >> uint(i) & 1
			}
			add(rx+4*(i+1), laneStim("rxd", 1, bit))
		}
		uniform(rx+36, "rxd", 1, 1) // stop bit; the line then stays idle

		uniform(base+56, "rd_en", 1, 1)
		uniform(base+57, "rd_en", 1, 0)
	}
	return cycles
}
