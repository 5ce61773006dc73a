package tensor

import (
	"math/rand"
	"testing"
)

// randRowMatrix builds a random sparse Int32CSR with k-bounded rows and
// the per-column bit matrix used as the scalar reference.
func randRowMatrix(rng *rand.Rand, rows, cols, maxK int) *Int32CSR {
	var entries []Triple
	for r := 0; r < rows; r++ {
		seen := map[int32]bool{}
		for k := 0; k < rng.Intn(maxK+1); k++ {
			c := int32(rng.Intn(cols))
			if seen[c] {
				continue
			}
			seen[c] = true
			v := float32(rng.Intn(9) - 4)
			if v == 0 {
				v = 1
			}
			entries = append(entries, Triple{Row: int32(r), Col: c, Val: v})
		}
	}
	m, err := FromTriples(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m.ToInt32()
}

// packRandom fills a packed activation block and its boolean mirror.
// Lanes beyond batch in the last word are filled with garbage ones to
// prove the kernels never let them contaminate real lanes.
func packRandom(rng *rand.Rand, cols, batch, words int) ([]uint64, [][]bool) {
	x := make([]uint64, cols*words)
	xbits := make([][]bool, cols)
	for c := 0; c < cols; c++ {
		xbits[c] = make([]bool, batch)
		for b := 0; b < batch; b++ {
			if rng.Intn(2) == 1 {
				xbits[c][b] = true
				x[c*words+b/64] |= 1 << uint(b%64)
			}
		}
		// Poison the garbage lanes of the last word.
		if rem := batch % 64; rem != 0 {
			x[c*words+words-1] |= ^uint64(0) << uint(rem)
		}
	}
	return x, xbits
}

// rowBatches exercises single partial words, exact word boundaries, and
// multi-word bodies that hit both the 4-wide unrolled loop and its
// scalar tail (300 → 5 words: one unrolled iteration + 1 tail word).
var rowBatches = []int{1, 5, 64, 67, 130, 256, 300}

func TestPackedConstCopyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		cols := 1 + rng.Intn(20)
		rows := 1 + rng.Intn(16)
		// Every row gets exactly one input column for the copy kernels.
		var entries []Triple
		for r := 0; r < rows; r++ {
			entries = append(entries, Triple{Row: int32(r), Col: int32(rng.Intn(cols)), Val: 1})
		}
		m, err := FromTriples(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		mi := m.ToInt32()

		for _, batch := range rowBatches {
			words := PackedWords(batch)
			x, xbits := packRandom(rng, cols, batch, words)
			rowList := make([]int32, rows)
			for r := range rowList {
				rowList[r] = int32(r)
			}

			y := make([]uint64, rows*words)
			PackedConstRows(y, words, rowList, true)
			for r := 0; r < rows; r++ {
				for b := 0; b < batch; b++ {
					if y[r*words+b/64]>>uint(b%64)&1 != 1 {
						t.Fatalf("const1 row %d lane %d: want 1", r, b)
					}
				}
			}
			PackedConstRows(y, words, rowList, false)
			for i, w := range y {
				if w != 0 {
					t.Fatalf("const0 word %d: got %x", i, w)
				}
			}

			for _, invert := range []bool{false, true} {
				mi.PackedCopyRows(x, words, y, rowList, invert)
				for r := 0; r < rows; r++ {
					src := mi.Col[mi.RowPtr[r]]
					for b := 0; b < batch; b++ {
						want := xbits[src][b] != invert
						got := y[r*words+b/64]>>uint(b%64)&1 == 1
						if got != want {
							t.Fatalf("copy invert=%v row %d lane %d: got %v want %v", invert, r, b, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPackedBoolRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		cols := 2 + rng.Intn(20)
		rows := 1 + rng.Intn(16)
		// Rows with 1..5 distinct +1 inputs.
		var entries []Triple
		for r := 0; r < rows; r++ {
			seen := map[int32]bool{}
			k := 1 + rng.Intn(5)
			for len(seen) < k && len(seen) < cols {
				c := int32(rng.Intn(cols))
				if seen[c] {
					continue
				}
				seen[c] = true
				entries = append(entries, Triple{Row: int32(r), Col: c, Val: 1})
			}
		}
		m, err := FromTriples(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		mi := m.ToInt32()
		rowList := make([]int32, rows)
		for r := range rowList {
			rowList[r] = int32(r)
		}

		for _, batch := range rowBatches {
			words := PackedWords(batch)
			x, xbits := packRandom(rng, cols, batch, words)
			y := make([]uint64, rows*words)

			check := func(name string, ref func(r, b int) bool) {
				t.Helper()
				for r := 0; r < rows; r++ {
					for b := 0; b < batch; b++ {
						want := ref(r, b)
						got := y[r*words+b/64]>>uint(b%64)&1 == 1
						if got != want {
							t.Fatalf("%s batch %d row %d lane %d: got %v want %v", name, batch, r, b, got, want)
						}
					}
				}
			}
			and := func(r, b int) bool {
				for p := mi.RowPtr[r]; p < mi.RowPtr[r+1]; p++ {
					if !xbits[mi.Col[p]][b] {
						return false
					}
				}
				return true
			}
			or := func(r, b int) bool {
				for p := mi.RowPtr[r]; p < mi.RowPtr[r+1]; p++ {
					if xbits[mi.Col[p]][b] {
						return true
					}
				}
				return false
			}
			xor := func(r, b int) bool {
				v := false
				for p := mi.RowPtr[r]; p < mi.RowPtr[r+1]; p++ {
					if mi.Val[p] == 1 && xbits[mi.Col[p]][b] {
						v = !v
					}
				}
				return v
			}

			mi.PackedAndRows(x, words, y, rowList, false)
			check("and", and)
			mi.PackedAndRows(x, words, y, rowList, true)
			check("nand", func(r, b int) bool { return !and(r, b) })
			mi.PackedOrRows(x, words, y, rowList, false)
			check("or", or)
			mi.PackedOrRows(x, words, y, rowList, true)
			check("nor", func(r, b int) bool { return !or(r, b) })
			mi.PackedXorRows(x, words, y, rowList)
			check("xor", xor)
		}
	}
}

// TestPackedRowsMatchRange proves the unrolled row-list kernels agree
// with the established range kernels on arbitrary row subsets — the
// multi-word unrolled body and its scalar tail included.
func TestPackedRowsMatchRange(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(30)
		mi := randRowMatrix(rng, rows, cols, 8)
		thresh := make([]int32, rows)
		for r := range thresh {
			thresh[r] = int32(rng.Intn(7) - 3)
		}
		// A random subset of rows, ascending.
		var rowList []int32
		for r := 0; r < rows; r++ {
			if rng.Intn(3) > 0 {
				rowList = append(rowList, int32(r))
			}
		}
		if len(rowList) == 0 {
			rowList = []int32{0}
		}

		for _, batch := range rowBatches {
			words := PackedWords(batch)
			x, _ := packRandom(rng, cols, batch, words)

			want := make([]uint64, rows*words)
			mi.PackedThreshRange(x, words, thresh, want, 0, rows)
			got := make([]uint64, rows*words)
			for i := range got {
				got[i] = rng.Uint64() // kernels must fully overwrite listed rows
			}
			mi.PackedThreshRows(x, words, thresh, got, rowList)
			for _, r := range rowList {
				for b := 0; b < batch; b++ {
					w, g := want[int(r)*words+b/64], got[int(r)*words+b/64]
					if w>>uint(b%64)&1 != g>>uint(b%64)&1 {
						t.Fatalf("thresh batch %d row %d lane %d: rows kernel differs from range", batch, r, b)
					}
				}
			}

			mi.PackedLinearRange(x, words, want, 0, rows)
			mi.PackedLinearRows(x, words, got, rowList)
			for _, r := range rowList {
				for b := 0; b < batch; b++ {
					w, g := want[int(r)*words+b/64], got[int(r)*words+b/64]
					if w>>uint(b%64)&1 != g>>uint(b%64)&1 {
						t.Fatalf("linear batch %d row %d lane %d: rows kernel differs from range", batch, r, b)
					}
				}
			}
		}
	}
}
