// Package testbench implements a small stimulus-script format for
// driving compiled models — the "verification benchmarks" of the
// paper's workflow (§II-A), as files rather than hard-coded drivers.
//
// Script syntax (one directive per line, '#' comments):
//
//	set <port> <value> [value ...]   load an input; one value per batch
//	                                 lane, the last value broadcasts to
//	                                 the remaining lanes
//	step [n]                         advance n clock cycles (default 1)
//	eval                             settle combinational logic only
//	expect <port> <value> [value...] compare output lanes; mismatches fail
//	expect_all <port> <value>        compare every lane to one value
//	reset                            reset flip-flop state in every lane
//	setff <i> <0|1>                  override flip-flop i's state in every
//	                                 lane (netlist flip-flop order)
//	expectff <i> <0|1>               compare flip-flop i's state in every
//	                                 lane
//	setbits <port> <value>           load an input of any width (every
//	                                 lane); value may exceed 64 bits
//	expectbits <port> <value>        compare an output of any width in
//	                                 every lane
//
// Values may be decimal, 0x… hex or 0b… binary; setbits/expectbits
// values of more than 64 bits must use the 0x or 0b form. The ff and
// bits directives drive every batch lane uniformly — they exist to
// replay single-stimulus counterexamples from the equivalence checker
// (see internal/equiv and docs/EQUIV.md).
package testbench

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"c2nn/internal/simengine"
)

// Op enumerates directive kinds.
type Op int

// Directive kinds.
const (
	OpSet Op = iota
	OpStep
	OpEval
	OpExpect
	OpExpectAll
	OpReset
	OpSetFF
	OpExpectFF
	OpSetBits
	OpExpectBits
)

// Directive is one parsed script line.
type Directive struct {
	Op   Op
	Line int
	Port string
	// Values holds the set/expect values, one per lane, or the one
	// setbits/expectbits value as LSB-first words.
	Values []uint64
	Count  int  // step count
	Index  int  // flip-flop index for setff/expectff
	FFVal  bool // flip-flop value for setff/expectff
}

// Script is a parsed testbench.
type Script struct {
	Directives []Directive
}

// Parse reads a testbench script.
func Parse(src string) (*Script, error) {
	s := &Script{}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		lineNo := ln + 1
		d := Directive{Line: lineNo}
		switch fields[0] {
		case "set", "expect", "expect_all":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: %s needs a port and at least one value", lineNo, fields[0])
			}
			d.Port = fields[1]
			for _, f := range fields[2:] {
				n := len(d.Values)
				var err error
				if d.Values, err = appendWords(d.Values, f); err != nil || len(d.Values) != n+1 {
					return nil, fmt.Errorf("line %d: bad value %q", lineNo, f)
				}
			}
			switch fields[0] {
			case "set":
				d.Op = OpSet
			case "expect":
				d.Op = OpExpect
			default:
				d.Op = OpExpectAll
				if len(d.Values) != 1 {
					return nil, fmt.Errorf("line %d: expect_all takes exactly one value", lineNo)
				}
			}
		case "setff", "expectff":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: %s needs a flip-flop index and a 0/1 value", lineNo, fields[0])
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("line %d: bad flip-flop index %q", lineNo, fields[1])
			}
			d.Index = idx
			switch fields[2] {
			case "0":
				d.FFVal = false
			case "1":
				d.FFVal = true
			default:
				return nil, fmt.Errorf("line %d: flip-flop value must be 0 or 1, got %q", lineNo, fields[2])
			}
			if fields[0] == "setff" {
				d.Op = OpSetFF
			} else {
				d.Op = OpExpectFF
			}
		case "setbits", "expectbits":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: %s needs a port and one value", lineNo, fields[0])
			}
			d.Port = fields[1]
			var err error
			if d.Values, err = appendWords(nil, fields[2]); err != nil {
				return nil, fmt.Errorf("line %d: bad value %q", lineNo, fields[2])
			}
			if fields[0] == "setbits" {
				d.Op = OpSetBits
			} else {
				d.Op = OpExpectBits
			}
		case "step":
			d.Op = OpStep
			d.Count = 1
			if len(fields) > 1 {
				n, err := strconv.Atoi(fields[1])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("line %d: bad step count %q", lineNo, fields[1])
				}
				d.Count = n
			}
		case "eval":
			d.Op = OpEval
		case "reset":
			d.Op = OpReset
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
		s.Directives = append(s.Directives, d)
	}
	return s, nil
}

// appendWords parses a decimal, 0x… hex or 0b… binary value and
// appends it to dst as LSB-first words: one word when the value fits
// 64 bits, else as many as its digits take (4 bits per hex digit).
// Decimal values are limited to 64 bits.
func appendWords(dst []uint64, s string) ([]uint64, error) {
	digits, base, per := strings.ReplaceAll(s, "_", ""), 10, 0
	switch {
	case strings.HasPrefix(digits, "0x"), strings.HasPrefix(digits, "0X"):
		digits, base, per = digits[2:], 16, 4
	case strings.HasPrefix(digits, "0b"), strings.HasPrefix(digits, "0B"):
		digits, base, per = digits[2:], 2, 1
	}
	if v, err := strconv.ParseUint(digits, base, 64); err == nil || per == 0 || digits == "" {
		return append(dst, v), err
	}
	n, words := len(dst), (per*len(digits)+63)/64
	dst = slices.Grow(dst, words)[:n+words]
	clear(dst[n:])
	for i := range len(digits) {
		v, err := strconv.ParseUint(digits[len(digits)-1-i:len(digits)-i], base, 8)
		if err != nil {
			return dst[:n], err
		}
		dst[n+per*i/64] |= v << uint(per*i%64)
	}
	return dst, nil
}

// FormatBits renders an LSB-first bit slice as a 0x literal accepted by
// setbits / expectbits — the inverse used when generating counterexample
// scripts.
func FormatBits(bits []bool) string {
	if len(bits) == 0 {
		return "0x0"
	}
	nDigits := (len(bits) + 3) / 4
	var b strings.Builder
	b.WriteString("0x")
	for d := nDigits - 1; d >= 0; d-- {
		v := 0
		for k := 0; k < 4; k++ {
			i := 4*d + k
			if i < len(bits) && bits[i] {
				v |= 1 << uint(k)
			}
		}
		b.WriteByte("0123456789abcdef"[v])
	}
	return b.String()
}

// Result summarises a run.
type Result struct {
	Steps   int
	Checks  int
	Applied int
}

// RunOptions generalises script execution beyond plain assertion runs.
type RunOptions struct {
	// Uniform drives every batch lane with the first value of each set
	// directive instead of the per-lane spread — fault-coverage grading
	// needs identical stimuli on the golden and every faulty lane.
	Uniform bool
	// Observer, when non-nil, replaces expect/expect_all assertions:
	// it is called once per expectation, after the engine has settled,
	// with the directive's line number and port name. Returning an
	// error aborts the run.
	Observer func(line int, port string) error
	// Trace, when non-nil, is called after every explicit clock step
	// and eval with a monotone sample index — the VCD capture hook.
	Trace func(sample int) error
}

// Run executes the script against an engine. The first failed
// expectation aborts with an error naming the script line.
func (s *Script) Run(eng *simengine.Engine) (Result, error) {
	return s.RunOpts(eng, RunOptions{})
}

// RunOpts executes the script with the given options. Every set and
// expect moves its port with one SetInput or GetOutput in the engine's
// Cycle layout, laid out in one value buffer the whole run reuses.
func (s *Script) RunOpts(eng *simengine.Engine, opts RunOptions) (Result, error) {
	var res Result
	batch := eng.Batch()
	settled := false
	sample := 0
	var vals []uint64

	trace := func() error {
		if opts.Trace == nil {
			return nil
		}
		err := opts.Trace(sample)
		sample++
		return err
	}

	// expand lays d's value out in vals for a port of stride words per
	// lane. A set/expect value goes into a lane's low word — the first
	// value under Uniform, the last one for lanes past the list; a
	// setbits/expectbits value fills every lane, words past stride
	// dropped.
	expand := func(d *Directive, stride int) []uint64 {
		vals = slices.Grow(vals[:0], batch*stride)[:batch*stride]
		clear(vals)
		for b := 0; b < batch; b++ {
			v := d.Values[len(d.Values)-1:]
			switch {
			case d.Op == OpSetBits || d.Op == OpExpectBits:
				v = d.Values
			case opts.Uniform:
				v = d.Values[:1]
			case b < len(d.Values):
				v = d.Values[b : b+1]
			}
			copy(vals[b*stride:(b+1)*stride], v)
		}
		return vals
	}

	for _, d := range s.Directives {
		if (d.Op == OpSet || d.Op == OpExpect) && len(d.Values) > batch {
			return res, fmt.Errorf("line %d: %d values for a batch of %d lanes",
				d.Line, len(d.Values), batch)
		}
		switch d.Op {
		case OpSet, OpSetBits:
			pm := eng.Model().FindInput(d.Port)
			if pm == nil {
				return res, fmt.Errorf("line %d: no input port %q", d.Line, d.Port)
			}
			if err := eng.SetInput(d.Port, expand(&d, (len(pm.Units)+63)/64)); err != nil {
				return res, fmt.Errorf("line %d: %v", d.Line, err)
			}
			settled = false
			res.Applied++
		case OpStep:
			for i := 0; i < d.Count; i++ {
				eng.Step()
				res.Steps++
				if err := trace(); err != nil {
					return res, fmt.Errorf("line %d: %w", d.Line, err)
				}
			}
			settled = false
		case OpEval:
			eng.Forward()
			settled = true
			if err := trace(); err != nil {
				return res, fmt.Errorf("line %d: %w", d.Line, err)
			}
		case OpReset:
			eng.Reset()
			settled = false
		case OpSetFF:
			fb := eng.Model().Feedback
			if d.Index >= len(fb) {
				return res, fmt.Errorf("line %d: flip-flop %d out of range (model has %d)",
					d.Line, d.Index, len(fb))
			}
			for b := 0; b < batch; b++ {
				eng.PokeUnit(fb[d.Index].ToPI, b, d.FFVal)
			}
			settled = false
			res.Applied++
		case OpExpectFF:
			if !settled {
				eng.Forward()
				settled = true
			}
			fb := eng.Model().Feedback
			if d.Index >= len(fb) {
				return res, fmt.Errorf("line %d: flip-flop %d out of range (model has %d)",
					d.Line, d.Index, len(fb))
			}
			if opts.Observer != nil {
				res.Checks++
				if err := opts.Observer(d.Line, fmt.Sprintf("ff[%d]", d.Index)); err != nil {
					return res, fmt.Errorf("line %d: %v", d.Line, err)
				}
				continue
			}
			for b := 0; b < batch; b++ {
				res.Checks++
				got := eng.PeekUnit(fb[d.Index].ToPI, b)
				if got != d.FFVal {
					return res, fmt.Errorf("line %d: ff[%d] lane %d = %d, want %d",
						d.Line, d.Index, b, b2u(got), b2u(d.FFVal))
				}
			}
		case OpExpect, OpExpectAll, OpExpectBits:
			if !settled {
				eng.Forward()
				settled = true
			}
			if opts.Observer != nil {
				res.Checks++
				if err := opts.Observer(d.Line, d.Port); err != nil {
					return res, fmt.Errorf("line %d: %v", d.Line, err)
				}
				continue
			}
			got, err := eng.GetOutput(d.Port)
			if err != nil {
				return res, fmt.Errorf("line %d: %v", d.Line, err)
			}
			width := len(eng.Model().FindOutput(d.Port).Units)
			for i := width; d.Op == OpExpectBits && i < 64*len(d.Values); i++ {
				if d.Values[i/64]>>uint(i%64)&1 == 1 {
					return res, fmt.Errorf("line %d: %s expectation sets bit %d but the port is %d bits wide",
						d.Line, d.Port, i, width)
				}
			}
			// A uint64 expectation is a wide port's low word; every
			// higher bit must be 0.
			stride, lanes := len(got)/batch, batch
			want := expand(&d, stride)
			if d.Op == OpExpect {
				lanes = len(d.Values)
			}
			for b := 0; b < lanes; b++ {
				res.Checks++
				for k := b * stride; k < (b+1)*stride; k++ {
					x := got[k] ^ want[k]
					if x == 0 {
						continue
					}
					i := bits.TrailingZeros64(x)
					bit := got[k] >> uint(i) & 1
					i += 64 * (k - b*stride)
					if stride == 1 && d.Op != OpExpectBits {
						return res, fmt.Errorf("line %d: %s lane %d = %#x, want %#x",
							d.Line, d.Port, b, got[k], want[k])
					}
					return res, fmt.Errorf("line %d: %s lane %d bit %d = %d, want %d (port is %d bits wide)",
						d.Line, d.Port, b, i, bit, bit^1, width)
				}
			}
		}
	}
	return res, nil
}

func b2u(v bool) int {
	if v {
		return 1
	}
	return 0
}
