// Package netlist defines the gate-level intermediate representation used
// throughout the compiler: a flat network of single-output combinational
// gates, D flip-flops and named multi-bit ports.
//
// The representation corresponds to the circuit model of the paper
// (§II-B): a digital circuit is a function {0,1}^n -> {0,1}^m realised by
// a directed acyclic graph of Boolean gates, with flip-flops providing
// sequential state. Flip-flops are kept separate from the combinational
// gates so that the "flip-flop cut" transformation (§III-C) — exposing D
// pins as pseudo-outputs and Q pins as pseudo-inputs — is a view change
// rather than a rewrite.
package netlist

import "fmt"

// NetID identifies a single-bit signal (a "net") in the netlist. IDs are
// dense, starting at 0. The zero and one constant nets are created by New
// and are always ConstZero and ConstOne.
type NetID int32

// InvalidNet is returned by lookups that fail and is never a valid net.
const InvalidNet NetID = -1

// GateKind enumerates the combinational gate primitives.
type GateKind uint8

// Gate primitives. Mux selects In[1] when In[0] is 0 and In[2] when
// In[0] is 1.
const (
	Buf GateKind = iota
	Not
	And
	Or
	Xor
	Nand
	Nor
	Xnor
	Mux
	numGateKinds
)

var gateKindNames = [...]string{
	Buf: "BUF", Not: "NOT", And: "AND", Or: "OR", Xor: "XOR",
	Nand: "NAND", Nor: "NOR", Xnor: "XNOR", Mux: "MUX",
}

// String returns the conventional upper-case name of the gate kind.
func (k GateKind) String() string {
	if int(k) < len(gateKindNames) {
		return gateKindNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// Arity returns the number of inputs the gate kind consumes.
func (k GateKind) Arity() int {
	switch k {
	case Buf, Not:
		return 1
	case Mux:
		return 3
	default:
		return 2
	}
}

// Gate is a single-output combinational primitive.
type Gate struct {
	Kind GateKind
	Out  NetID
	In   [3]NetID // first Kind.Arity() entries are valid
}

// Inputs returns the valid input nets of the gate.
func (g *Gate) Inputs() []NetID { return g.In[:g.Kind.Arity()] }

// Eval computes the gate function over boolean input values. The slice
// must hold at least Arity values.
func (k GateKind) Eval(in []bool) bool {
	switch k {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		return in[0] && in[1]
	case Or:
		return in[0] || in[1]
	case Xor:
		return in[0] != in[1]
	case Nand:
		return !(in[0] && in[1])
	case Nor:
		return !(in[0] || in[1])
	case Xnor:
		return in[0] == in[1]
	case Mux:
		if in[0] {
			return in[2]
		}
		return in[1]
	}
	panic("netlist: invalid gate kind " + k.String())
}

// EvalWord computes the gate function bitwise over 64-bit lanes, used by
// the bit-parallel simulator.
func (k GateKind) EvalWord(in []uint64) uint64 {
	switch k {
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And:
		return in[0] & in[1]
	case Or:
		return in[0] | in[1]
	case Xor:
		return in[0] ^ in[1]
	case Nand:
		return ^(in[0] & in[1])
	case Nor:
		return ^(in[0] | in[1])
	case Xnor:
		return ^(in[0] ^ in[1])
	case Mux:
		return (in[1] &^ in[0]) | (in[2] & in[0])
	}
	panic("netlist: invalid gate kind " + k.String())
}

// FlipFlop is a D-type flip-flop referenced to the unified global clock
// (clock unification, paper §III-C). Init is the power-on/reset value of Q.
type FlipFlop struct {
	D    NetID
	Q    NetID
	Init bool
}

// Port is a named, ordered group of nets: Bits[0] is the least
// significant bit.
type Port struct {
	Name string
	Bits []NetID
}

// Width returns the number of bits in the port.
func (p *Port) Width() int { return len(p.Bits) }

// Netlist is a flat gate-level circuit. Net 0 is constant zero and net 1
// constant one; they have no driver gate.
type Netlist struct {
	Name    string
	numNets int
	names   map[NetID]string

	Gates   []Gate
	FFs     []FlipFlop
	Inputs  []Port
	Outputs []Port
}

// ConstZero and ConstOne are the dedicated constant nets present in every
// netlist created by New.
const (
	ConstZero NetID = 0
	ConstOne  NetID = 1
)

// New returns an empty netlist containing only the two constant nets.
func New(name string) *Netlist {
	return &Netlist{
		Name:    name,
		numNets: 2,
		names:   make(map[NetID]string),
	}
}

// NumNets returns the number of nets allocated, including the constants.
func (n *Netlist) NumNets() int { return n.numNets }

// NewNet allocates a fresh net and returns its ID.
func (n *Netlist) NewNet() NetID {
	id := NetID(n.numNets)
	n.numNets++
	return id
}

// NewNets allocates w fresh nets, returned LSB-first.
func (n *Netlist) NewNets(w int) []NetID {
	out := make([]NetID, w)
	for i := range out {
		out[i] = n.NewNet()
	}
	return out
}

// SetName attaches a debug name to a net. Names are advisory and need not
// be unique.
func (n *Netlist) SetName(id NetID, name string) { n.names[id] = name }

// NameOf returns the debug name of a net, or a synthesised placeholder.
func (n *Netlist) NameOf(id NetID) string {
	if s, ok := n.names[id]; ok {
		return s
	}
	switch id {
	case ConstZero:
		return "1'b0"
	case ConstOne:
		return "1'b1"
	}
	return fmt.Sprintf("n%d", id)
}

// AddGate appends a gate driving a fresh net and returns that net.
func (n *Netlist) AddGate(kind GateKind, in ...NetID) NetID {
	if len(in) != kind.Arity() {
		panic(fmt.Sprintf("netlist: %s expects %d inputs, got %d", kind, kind.Arity(), len(in)))
	}
	out := n.NewNet()
	g := Gate{Kind: kind, Out: out}
	copy(g.In[:], in)
	n.Gates = append(n.Gates, g)
	return out
}

// AddGateOut appends a gate driving an existing net (which must not have
// another driver; Validate checks this).
func (n *Netlist) AddGateOut(kind GateKind, out NetID, in ...NetID) {
	if len(in) != kind.Arity() {
		panic(fmt.Sprintf("netlist: %s expects %d inputs, got %d", kind, kind.Arity(), len(in)))
	}
	g := Gate{Kind: kind, Out: out}
	copy(g.In[:], in)
	n.Gates = append(n.Gates, g)
}

// AddFF appends a flip-flop with output net Q driven from D.
func (n *Netlist) AddFF(d, q NetID, init bool) {
	n.FFs = append(n.FFs, FlipFlop{D: d, Q: q, Init: init})
}

// AddInput declares a new input port of the given width and returns its
// nets LSB-first.
func (n *Netlist) AddInput(name string, width int) []NetID {
	bits := n.NewNets(width)
	n.Inputs = append(n.Inputs, Port{Name: name, Bits: bits})
	for i, b := range bits {
		if width == 1 {
			n.SetName(b, name)
		} else {
			n.SetName(b, fmt.Sprintf("%s[%d]", name, i))
		}
	}
	return bits
}

// AddOutput declares an output port over existing nets (LSB-first).
func (n *Netlist) AddOutput(name string, bits []NetID) {
	cp := make([]NetID, len(bits))
	copy(cp, bits)
	n.Outputs = append(n.Outputs, Port{Name: name, Bits: cp})
}

// FindInput returns the input port with the given name, or nil.
func (n *Netlist) FindInput(name string) *Port {
	for i := range n.Inputs {
		if n.Inputs[i].Name == name {
			return &n.Inputs[i]
		}
	}
	return nil
}

// FindOutput returns the output port with the given name, or nil.
func (n *Netlist) FindOutput(name string) *Port {
	for i := range n.Outputs {
		if n.Outputs[i].Name == name {
			return &n.Outputs[i]
		}
	}
	return nil
}

// NumGates returns the number of combinational gates.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumFFs returns the number of flip-flops.
func (n *Netlist) NumFFs() int { return len(n.FFs) }

// GateCount reports gates including flip-flops, the size metric used in
// Table I of the paper.
func (n *Netlist) GateCount() int { return len(n.Gates) + len(n.FFs) }

// InputBits returns the total number of primary input bits.
func (n *Netlist) InputBits() int {
	t := 0
	for i := range n.Inputs {
		t += len(n.Inputs[i].Bits)
	}
	return t
}

// OutputBits returns the total number of primary output bits.
func (n *Netlist) OutputBits() int {
	t := 0
	for i := range n.Outputs {
		t += len(n.Outputs[i].Bits)
	}
	return t
}

// CombInputs returns the nets that act as inputs of the combinational
// core: the constants, all primary input bits and all flip-flop Q pins
// (the pseudo-inputs of the flip-flop cut, paper §III-C).
func (n *Netlist) CombInputs() []NetID {
	out := []NetID{ConstZero, ConstOne}
	for i := range n.Inputs {
		out = append(out, n.Inputs[i].Bits...)
	}
	for i := range n.FFs {
		out = append(out, n.FFs[i].Q)
	}
	return out
}

// CombOutputs returns the nets that must be computed by the combinational
// core each cycle: all primary output bits and all flip-flop D pins (the
// pseudo-outputs of the flip-flop cut).
func (n *Netlist) CombOutputs() []NetID {
	var out []NetID
	for i := range n.Outputs {
		out = append(out, n.Outputs[i].Bits...)
	}
	for i := range n.FFs {
		out = append(out, n.FFs[i].D)
	}
	return out
}

// DriverIndex builds a map from net to the index of its driving gate in
// Gates, with -1 for nets driven by inputs, constants or flip-flops.
func (n *Netlist) DriverIndex() []int32 {
	drv := make([]int32, n.numNets)
	for i := range drv {
		drv[i] = -1
	}
	for i := range n.Gates {
		drv[n.Gates[i].Out] = int32(i)
	}
	return drv
}
