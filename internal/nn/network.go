// Package nn builds the neural-network representation of a digital
// circuit (the paper's core contribution). Every LUT of the computation
// graph is converted to its multi-linear polynomial; each non-constant
// polynomial term becomes a hidden threshold neuron with unit weights
// and bias |S|−1 (Fig. 2, Eq. 3), and each signal is the exact linear
// combination of its term neurons. Build lays that alternation out
// level by level; because the linear layers are exact, Merge can fold
// each one into the following threshold layer by multiplying weights
// (Fig. 5), halving the network depth (§III-D).
//
// Activation layout: one shared, growing activation vector. Unit 0 is
// the constant-one neuron (the h_∅ term of Eq. 1), units 1..NumPIs hold
// the circuit's combinational inputs, and each layer appends its rows.
// A layer's weight matrix has as many columns as there are units before
// it, so a forward pass is a chain of sparse matrix products — exactly
// the PyTorch execution model of §III-E, realised on float32 CSR
// matrices from internal/tensor.
package nn

import (
	"fmt"

	"c2nn/internal/irlint/diag"
	"c2nn/internal/tensor"
)

// Layer is one NN layer: rows of W are this layer's neurons, columns
// span every unit produced before it. Threshold layers apply
// y = Θ(W·a − Bias); linear layers apply y = W·a exactly (constant
// contributions ride on the constant-one unit, so linear layers carry no
// bias, matching §III-B3).
type Layer struct {
	W         *tensor.CSR
	Bias      []float32 // nil for linear layers
	Threshold bool
}

// Network is the layered NN with the shared activation vector.
type Network struct {
	// NumPIs is the number of circuit combinational inputs.
	NumPIs int
	// SegStart[l] is the first unit index of layer l's rows.
	SegStart []int32
	// TotalUnits = 1 (const) + NumPIs + all layer rows.
	TotalUnits int
	Layers     []Layer
}

// ConstUnit is the index of the constant-one activation.
const ConstUnit = 0

// PIUnit returns the unit index of combinational input i.
func PIUnit(i int) int32 { return int32(1 + i) }

// EvalSingle runs one stimulus through the network and returns the full
// activation vector (the test oracle; the batched engine lives in
// internal/simengine).
func (n *Network) EvalSingle(pis []float32) []float32 {
	if len(pis) != n.NumPIs {
		panic("nn: wrong PI count")
	}
	a := make([]float32, n.TotalUnits)
	a[ConstUnit] = 1
	copy(a[1:], pis)
	for li := range n.Layers {
		l := &n.Layers[li]
		seg := n.SegStart[li]
		out := a[seg : seg+int32(l.W.Rows)]
		l.W.MulVec(a[:l.W.Cols], out)
		if l.Threshold {
			for r := range out {
				if out[r]-l.Bias[r] > 0 {
					out[r] = 1
				} else {
					out[r] = 0
				}
			}
		}
	}
	return a
}

// Stats summarises the network for Table I: layer count, connection
// count, mean per-layer sparsity, memory footprint.
type Stats struct {
	Layers       int
	Neurons      int
	Connections  int // total non-zero weights
	MeanSparsity float64
	MemoryBytes  int
	MaxLayerRows int
}

// ComputeStats gathers network statistics.
func (n *Network) ComputeStats() Stats {
	s := Stats{Layers: len(n.Layers)}
	var spSum float64
	for i := range n.Layers {
		l := &n.Layers[i]
		s.Neurons += l.W.Rows
		s.Connections += l.W.NNZ()
		spSum += l.W.Sparsity()
		s.MemoryBytes += l.W.MemoryBytes() + 4*len(l.Bias)
		if l.W.Rows > s.MaxLayerRows {
			s.MaxLayerRows = l.W.Rows
		}
	}
	if len(n.Layers) > 0 {
		s.MeanSparsity = spSum / float64(len(n.Layers))
	}
	return s
}

// Validate checks the structural invariants of the layer chain. It is
// a thin wrapper over the collect-all irlint rules in lint.go,
// returning the first Error-severity diagnostic; use Lint to see every
// violation.
func (n *Network) Validate() error { return firstError(n.Lint()) }

// Validate is Network.Validate plus the port and feedback unit bounds.
func (m *Model) Validate() error { return firstError(m.Lint()) }

func firstError(ds []diag.Diagnostic) error {
	for _, d := range ds {
		if d.Severity == diag.Error {
			return fmt.Errorf("nn: [%s] %s: %s", d.Rule, d.Loc, d.Msg)
		}
	}
	return nil
}

// PortMap ties a named circuit port to unit indices (LSB-first).
type PortMap struct {
	Name  string
	Units []int32
}

// Feedback wires a pseudo-output (flip-flop D) unit back to a
// pseudo-input (flip-flop Q) unit between cycles — the recurrent
// connection of the flip-flop cut (§III-C).
type Feedback struct {
	FromUnit int32 // D value in the activation vector
	ToPI     int32 // Q unit (a PI slot) for the next cycle
	Init     bool
}

// LUTTrace records where one mapped LUT landed in the built network:
// the hidden units realising its polynomial terms and the exact linear
// form of its output value. TermUnits[i] is the threshold neuron of the
// non-constant term with variable set TermMasks[i] (a bitmask over the
// LUT's input pins); the LUT's value is Cst + Σ VCoefs[i]·VUnits[i]
// over binary unit activations. Build points the value form at the
// materialised signal unit with coefficient 1; in merged networks it
// spans the term units directly (the signal is never materialised).
type LUTTrace struct {
	Level     int32
	TermUnits []int32
	TermMasks []uint32
	Cst       int32
	VUnits    []int32
	VCoefs    []int32
}

// Trace is the LUT→network provenance recorded by Build and rewritten
// by Merge — the hook the fault-injection subsystem uses to force a
// LUT's behaviour per batch lane. LayerOfLevel[l] is the network layer whose rows are the term
// units of computation-graph level l (-1 for levels with no LUTs).
type Trace struct {
	LayerOfLevel []int32
	LUTs         []LUTTrace
}

// Model is a compiled circuit: the network plus the port and feedback
// metadata needed to simulate it, and the provenance recorded for
// throughput accounting.
type Model struct {
	Net      *Network
	Inputs   []PortMap
	Outputs  []PortMap
	Feedback []Feedback

	CircuitName string
	L           int   // LUT size used during mapping
	GateCount   int64 // gates incl. flip-flops, Table I's size metric
	Merged      bool

	// Trace is the LUT provenance of the build. It is not serialised:
	// models loaded from .c2nn files carry a nil Trace and cannot be
	// fault-injected.
	Trace *Trace
}

// FindInput returns the input port map with the given name, or nil.
func (m *Model) FindInput(name string) *PortMap {
	for i := range m.Inputs {
		if m.Inputs[i].Name == name {
			return &m.Inputs[i]
		}
	}
	return nil
}

// FindOutput returns the output port map with the given name, or nil.
func (m *Model) FindOutput(name string) *PortMap {
	for i := range m.Outputs {
		if m.Outputs[i].Name == name {
			return &m.Outputs[i]
		}
	}
	return nil
}
