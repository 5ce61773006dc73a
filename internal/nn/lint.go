package nn

import (
	"math"
	"strconv"

	"c2nn/internal/irlint/diag"
)

// NN-stage lint rules (NN···).
var (
	// RuleNNSegments fires when the layer/segment chain is
	// inconsistent: segment starts out of step with accumulated rows,
	// or TotalUnits disagreeing with the sum.
	RuleNNSegments = diag.Register(diag.Rule{
		ID: "NN001", Stage: diag.StageNN, Severity: diag.Error,
		Summary: "layer segment or unit accounting mismatch"})
	// RuleNNMatrix fires on malformed CSR storage: row-pointer array
	// of the wrong length, non-monotone row pointers, or column/value
	// arrays of disagreeing lengths.
	RuleNNMatrix = diag.Register(diag.Rule{
		ID: "NN002", Stage: diag.StageNN, Severity: diag.Error,
		Summary: "sparse weight matrix storage malformed"})
	// RuleNNColumn fires when a weight references a column at or
	// beyond the units available before its layer — a sparse index
	// that would read garbage activations.
	RuleNNColumn = diag.Register(diag.Rule{
		ID: "NN003", Stage: diag.StageNN, Severity: diag.Error,
		Summary: "weight column index out of range"})
	// RuleNNFinite fires on NaN or infinite weights and biases.
	RuleNNFinite = diag.Register(diag.Rule{
		ID: "NN004", Stage: diag.StageNN, Severity: diag.Error,
		Summary: "non-finite weight or bias"})
	// RuleNNBias fires when a threshold layer's bias vector length
	// disagrees with its row count, or a linear layer carries a bias
	// (linear layers are exact and bias-free, §III-B3).
	RuleNNBias = diag.Register(diag.Rule{
		ID: "NN005", Stage: diag.StageNN, Severity: diag.Error,
		Summary: "bias vector shape violation"})
	// RuleNNPort fires when a port map or flip-flop feedback entry
	// references a unit outside the activation vector, or a feedback
	// target outside the PI segment.
	RuleNNPort = diag.Register(diag.Rule{
		ID: "NN006", Stage: diag.StageNN, Severity: diag.Error,
		Summary: "port or feedback unit out of range"})
)

// Lint checks every structural invariant of the layer chain,
// collecting all violations.
func (n *Network) Lint() []diag.Diagnostic {
	var ds []diag.Diagnostic
	loc := func(i int) string { return "layer " + strconv.Itoa(i) }

	if len(n.SegStart) != len(n.Layers) {
		ds = append(ds, RuleNNSegments.New("network",
			"%d segment starts for %d layers", len(n.SegStart), len(n.Layers)))
	}
	if n.NumPIs < 0 {
		ds = append(ds, RuleNNSegments.New("network", "%d combinational inputs", n.NumPIs))
	}
	units := 1 + n.NumPIs
	for i := range n.Layers {
		l := &n.Layers[i]
		if i < len(n.SegStart) && int(n.SegStart[i]) != units {
			ds = append(ds, RuleNNSegments.New(loc(i),
				"segment starts at unit %d, %d units precede it", n.SegStart[i], units))
		}
		if l.W == nil {
			ds = append(ds, RuleNNMatrix.New(loc(i), "layer has no weight matrix"))
			continue
		}
		ds = append(ds, lintCSR(l, i, units)...)
		if l.Threshold {
			if len(l.Bias) != l.W.Rows {
				ds = append(ds, RuleNNBias.New(loc(i),
					"threshold layer bias length %d != %d rows", len(l.Bias), l.W.Rows))
			}
		} else if l.Bias != nil {
			ds = append(ds, RuleNNBias.New(loc(i),
				"linear layer carries a bias of length %d", len(l.Bias)))
		}
		for bi, b := range l.Bias {
			if f64 := float64(b); math.IsNaN(f64) || math.IsInf(f64, 0) {
				ds = append(ds, RuleNNFinite.New(loc(i),
					"bias %d is %v", bi, b))
			}
		}
		units += l.W.Rows
	}
	if units != n.TotalUnits {
		ds = append(ds, RuleNNSegments.New("network",
			"TotalUnits %d, layer chain produces %d", n.TotalUnits, units))
	}
	return ds
}

// lintCSR validates one layer's sparse matrix: storage shape, column
// bounds against the units preceding the layer, finite values.
func lintCSR(l *Layer, layer, units int) []diag.Diagnostic {
	var ds []diag.Diagnostic
	loc := "layer " + strconv.Itoa(layer)
	m := l.W

	if m.Rows < 0 || m.Cols < 0 {
		return append(ds, RuleNNMatrix.New(loc, "matrix of %d rows by %d columns", m.Rows, m.Cols))
	}
	if m.Cols > units {
		ds = append(ds, RuleNNColumn.New(loc,
			"matrix spans %d columns, only %d units precede the layer", m.Cols, units))
	}
	if len(m.RowPtr) != m.Rows+1 {
		ds = append(ds, RuleNNMatrix.New(loc,
			"row pointer length %d for %d rows", len(m.RowPtr), m.Rows))
		return ds // entry iteration is unsafe
	}
	if len(m.Col) != len(m.Val) {
		ds = append(ds, RuleNNMatrix.New(loc,
			"%d column indices for %d values", len(m.Col), len(m.Val)))
		return ds
	}
	if m.Rows > 0 {
		if m.RowPtr[0] != 0 {
			ds = append(ds, RuleNNMatrix.New(loc,
				"row pointers start at %d, not 0", m.RowPtr[0]))
		}
		if int(m.RowPtr[m.Rows]) != len(m.Col) {
			ds = append(ds, RuleNNMatrix.New(loc,
				"row pointers end at %d, %d entries stored", m.RowPtr[m.Rows], len(m.Col)))
		}
		for r := 0; r < m.Rows; r++ {
			if m.RowPtr[r] > m.RowPtr[r+1] {
				ds = append(ds, RuleNNMatrix.New(loc,
					"row %d pointer %d exceeds row %d pointer %d",
					r, m.RowPtr[r], r+1, m.RowPtr[r+1]))
				return ds
			}
		}
	}
	for p, c := range m.Col {
		if c < 0 || int(c) >= m.Cols {
			ds = append(ds, RuleNNColumn.New(loc,
				"entry %d column %d outside matrix of %d columns", p, c, m.Cols))
		}
	}
	for p, v := range m.Val {
		if f64 := float64(v); math.IsNaN(f64) || math.IsInf(f64, 0) {
			ds = append(ds, RuleNNFinite.New(loc, "weight entry %d is %v", p, v))
		}
	}
	return ds
}

// Lint checks the model: the network itself plus port-map and
// flip-flop feedback unit bounds.
func (m *Model) Lint() []diag.Diagnostic {
	ds := m.Net.Lint()
	total := int32(m.Net.TotalUnits)
	piEnd := int32(1 + m.Net.NumPIs)

	checkPorts := func(kind string, ports []PortMap) {
		for _, p := range ports {
			for bi, u := range p.Units {
				if u < 0 || u >= total {
					ds = append(ds, RuleNNPort.New(kind+" "+p.Name,
						"bit %d maps to unit %d, network has %d units", bi, u, total))
				}
			}
		}
	}
	checkPorts("input", m.Inputs)
	checkPorts("output", m.Outputs)
	for fi, fb := range m.Feedback {
		loc := "feedback " + strconv.Itoa(fi)
		if fb.FromUnit < 0 || fb.FromUnit >= total {
			ds = append(ds, RuleNNPort.New(loc,
				"source unit %d outside network of %d units", fb.FromUnit, total))
		}
		if fb.ToPI < 1 || fb.ToPI >= piEnd {
			ds = append(ds, RuleNNPort.New(loc,
				"target unit %d outside the PI segment [1, %d)", fb.ToPI, piEnd))
		}
	}
	return ds
}
