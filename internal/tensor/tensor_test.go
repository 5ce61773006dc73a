package tensor

import (
	"math/rand"
	"testing"
)

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Triple
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				entries = append(entries, Triple{Row: int32(r), Col: int32(c),
					Val: float32(rng.Intn(7) - 3)})
			}
		}
	}
	m, err := FromTriples(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m
}

func TestFromTriplesAndNNZ(t *testing.T) {
	m, err := FromTriples(3, 4, []Triple{
		{0, 1, 2}, {2, 3, -1}, {1, 0, 5}, {0, 3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	// Go constant arithmetic is exact, runtime float division is not:
	// compare with a tolerance.
	want := 1 - 4.0/12.0
	if s := m.Sparsity(); s < want-1e-12 || s > want+1e-12 {
		t.Fatalf("sparsity = %f", s)
	}
	x := []float32{1, 2, 3, 4}
	y := make([]float32, 3)
	m.MulVec(x, y)
	if y[0] != 2*2+1*4 || y[1] != 5 || y[2] != -4 {
		t.Fatalf("y = %v", y)
	}
}

func TestFromTriplesBounds(t *testing.T) {
	if _, err := FromTriples(2, 2, []Triple{{5, 0, 1}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := FromTriples(2, 2, []Triple{{0, -1, 1}}); err == nil {
		t.Fatal("negative col accepted")
	}
}

func TestMulBatchMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 37, 23, 0.2)
	batch := 17
	x := make([]float32, m.Cols*batch)
	for i := range x {
		x[i] = float32(rng.Intn(3))
	}
	y := make([]float32, m.Rows*batch)
	m.MulBatch(x, batch, y)

	for b := 0; b < batch; b++ {
		xv := make([]float32, m.Cols)
		for c := 0; c < m.Cols; c++ {
			xv[c] = x[c*batch+b]
		}
		yv := make([]float32, m.Rows)
		m.MulVec(xv, yv)
		for r := 0; r < m.Rows; r++ {
			if y[r*batch+b] != yv[r] {
				t.Fatalf("batch/scalar mismatch at (%d,%d): %f vs %f", r, b, y[r*batch+b], yv[r])
			}
		}
	}
}

func TestDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 40, 30, 0.3)
	d := m.ToDense()
	batch := 5
	x := make([]float32, m.Cols*batch)
	for i := range x {
		x[i] = float32(rng.Intn(2))
	}
	ys := make([]float32, m.Rows*batch)
	yd := make([]float32, m.Rows*batch)
	yn := make([]float32, m.Rows*batch)
	m.MulBatch(x, batch, ys)
	d.MulBatch(x, batch, yd)
	d.MulBatchNoSkip(x, batch, yn)
	for i := range ys {
		if ys[i] != yd[i] || ys[i] != yn[i] {
			t.Fatalf("dense mismatch at %d: %f %f %f", i, ys[i], yd[i], yn[i])
		}
	}
}

// TestInt32Matches checks ToInt32, the fixture every packed-kernel test
// builds on: integer products over its arrays equal the float SpMM.
func TestInt32Matches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomCSR(rng, 64, 48, 0.1)
	mi := m.ToInt32()
	batch := 9
	xf := make([]float32, m.Cols*batch)
	for i := range xf {
		xf[i] = float32(rng.Intn(2))
	}
	yf := make([]float32, m.Rows*batch)
	m.MulBatch(xf, batch, yf)
	for r := 0; r < mi.Rows; r++ {
		for b := 0; b < batch; b++ {
			var acc int32
			for p := mi.RowPtr[r]; p < mi.RowPtr[r+1]; p++ {
				acc += mi.Val[p] * int32(xf[int(mi.Col[p])*batch+b])
			}
			if int32(yf[r*batch+b]) != acc {
				t.Fatalf("int mismatch at (%d,%d): %f %d", r, b, yf[r*batch+b], acc)
			}
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(5)), 10, 10, 0.5)
	want := 4 * (11 + 2*m.NNZ())
	if m.MemoryBytes() != want {
		t.Fatalf("memory = %d, want %d", m.MemoryBytes(), want)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m, err := FromTriples(0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sparsity() != 1 {
		t.Fatal("empty sparsity")
	}
	m.MulBatch(make([]float32, 5), 1, nil)
}
