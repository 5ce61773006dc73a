// Package tensor is the minimal linear-algebra substrate standing in for
// PyTorch (paper §III-E/F): float32 CSR sparse matrices, dense matrices
// for the ablation, and batched sparse×dense products (SpMM). Row
// partitioning across workers lives in internal/exec/backend (Pool).
//
// Activation matrices use neuron-major layout: a matrix of N neurons
// over a batch of B stimuli is a flat []float32 of length N*B where
// element n*B+b is neuron n of stimulus b. Batch-contiguous rows make
// the inner SpMM loop a dense AXPY, which is also the access pattern
// cuSPARSE favours on the GPU.
package tensor

import "fmt"

// Triple is one explicit matrix entry used during construction.
type Triple struct {
	Row, Col int32
	Val      float32
}

// CSR is a compressed-sparse-row float32 matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	Col        []int32
	Val        []float32
}

// FromTriples builds a CSR matrix from entries. Entries must not repeat
// (row, col) pairs; rows may appear in any order.
func FromTriples(rows, cols int, entries []Triple) (*CSR, error) {
	m := &CSR{Rows: rows, Cols: cols,
		RowPtr: make([]int32, rows+1),
		Col:    make([]int32, len(entries)),
		Val:    make([]float32, len(entries)),
	}
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("tensor: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
		m.RowPtr[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	pos := make([]int32, rows)
	copy(pos, m.RowPtr[:rows])
	for _, e := range entries {
		p := pos[e.Row]
		m.Col[p] = e.Col
		m.Val[p] = e.Val
		pos[e.Row]++
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Sparsity returns the fraction of zero entries (1 - density), the
// figure reported per layer in Table I.
func (m *CSR) Sparsity() float64 {
	total := float64(m.Rows) * float64(m.Cols)
	if total == 0 {
		return 1
	}
	return 1 - float64(m.NNZ())/total
}

// MulVec computes y = M·x for a single stimulus.
func (m *CSR) MulVec(x, y []float32) {
	if len(x) < m.Cols || len(y) < m.Rows {
		panic("tensor: MulVec size mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		var acc float32
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			acc += m.Val[p] * x[m.Col[p]]
		}
		y[r] = acc
	}
}

// MulBatch computes Y = M·X over a batch: X is Cols×batch, Y is
// Rows×batch, both neuron-major.
func (m *CSR) MulBatch(x []float32, batch int, y []float32) {
	for r := 0; r < m.Rows; r++ {
		yr := y[r*batch : (r+1)*batch]
		for i := range yr {
			yr[i] = 0
		}
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			v := m.Val[p]
			xc := x[int(m.Col[p])*batch : (int(m.Col[p])+1)*batch]
			for i, xv := range xc {
				yr[i] += v * xv
			}
		}
	}
}

// MemoryBytes estimates the storage footprint of the CSR arrays (the
// model-file size component reported in Table I).
func (m *CSR) MemoryBytes() int {
	return 4 * (len(m.RowPtr) + len(m.Col) + len(m.Val))
}

// Dense is a row-major dense float32 matrix, used by the sparse-vs-dense
// ablation benchmark (§III-F).
type Dense struct {
	Rows, Cols int
	Val        []float32
}

// NewDense allocates a zero dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Val: make([]float32, rows*cols)}
}

// ToDense expands a CSR matrix.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			d.Val[r*m.Cols+int(m.Col[p])] = m.Val[p]
		}
	}
	return d
}

// MulBatch computes Y = M·X densely (same layouts as CSR.MulBatch).
func (d *Dense) MulBatch(x []float32, batch int, y []float32) {
	for r := 0; r < d.Rows; r++ {
		yr := y[r*batch : (r+1)*batch]
		for i := range yr {
			yr[i] = 0
		}
		row := d.Val[r*d.Cols : (r+1)*d.Cols]
		for c, v := range row {
			if v == 0 {
				continue
			}
			xc := x[c*batch : (c+1)*batch]
			for i, xv := range xc {
				yr[i] += v * xv
			}
		}
	}
}

// MulBatchNoSkip is MulBatch without the zero-entry skip — the truly
// dense kernel, for measuring what sparsity exploitation buys.
func (d *Dense) MulBatchNoSkip(x []float32, batch int, y []float32) {
	for r := 0; r < d.Rows; r++ {
		yr := y[r*batch : (r+1)*batch]
		for i := range yr {
			yr[i] = 0
		}
		row := d.Val[r*d.Cols : (r+1)*d.Cols]
		for c, v := range row {
			xc := x[c*batch : (c+1)*batch]
			for i, xv := range xc {
				yr[i] += v * xv
			}
		}
	}
}

// Int32CSR is the integer-weight variant of CSR implementing the
// paper's "integer and binary kernels" future-work item (§V): weights
// and activations are exact small integers, so int32 arithmetic
// reproduces the same results without float rounding concerns.
type Int32CSR struct {
	Rows, Cols int
	RowPtr     []int32
	Col        []int32
	Val        []int32
}

// ToInt32 converts a CSR with integral entries.
func (m *CSR) ToInt32() *Int32CSR {
	out := &Int32CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, Col: m.Col,
		Val: make([]int32, len(m.Val))}
	for i, v := range m.Val {
		out.Val[i] = int32(v)
	}
	return out
}
