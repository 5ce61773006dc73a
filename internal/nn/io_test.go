package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"c2nn/internal/circuits"
	"c2nn/internal/lutmap"
)

// uartModels builds the UART at L=4 in both forms, the fuzz seeds.
func uartModels(t testing.TB) [2]*Model {
	t.Helper()
	c, err := circuits.ByName("UART")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	model, err := Build(nl, m, BuildOptions{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(model)
	if err != nil {
		t.Fatal(err)
	}
	return [2]*Model{model, merged}
}

// TestLoadBoundedByInput hands Load headers that promise the largest
// arrays the format allows and then end: the error must be typed and
// the memory spent must be that of the bytes present, not the promise.
func TestLoadBoundedByInput(t *testing.T) {
	var hdr bytes.Buffer
	le := binary.LittleEndian
	for _, v := range []uint32{magic, version, 0 /* name */, 4 /* L */} {
		binary.Write(&hdr, le, v)
	}
	binary.Write(&hdr, le, int64(1))                                         // gate count
	binary.Write(&hdr, le, []uint32{0, 1, 2, 1 /* layers */, 2, 0, 1 << 27}) // merged, PIs, units, layers; seg, thr, rows
	binary.Write(&hdr, le, []uint32{2, 1 << 28})                             // cols; RowPtr length
	if hdr.Len() > 64 {
		t.Fatalf("header is %d bytes", hdr.Len())
	}
	for _, tail := range []int{0, 40, 1 << 20} {
		data := append(hdr.Bytes(), make([]byte, tail)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%d-byte file: error %v does not wrap ErrFormat", len(data), err)
		}
		// Chunk buffers plus doubling growth: a small multiple of the input.
		if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(8*len(data)+1<<20) {
			t.Errorf("%d-byte file: Load allocated %d bytes", len(data), spent)
		}
	}
}

// FuzzLoad feeds Load mutated model files. It must never panic; what it
// accepts must be a valid model that saves and reloads to the same bytes.
func FuzzLoad(f *testing.F) {
	for _, m := range uartModels(f) {
		var buf bytes.Buffer
		if _, err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if ds := m.Lint(); len(ds) != 0 {
			t.Fatalf("Load accepted a model that lints: %v", ds)
		}
		var first, second bytes.Buffer
		if _, err := m.Save(&first); err != nil {
			t.Fatal(err)
		}
		if m.MemoryBytes() != int64(first.Len()) {
			t.Fatalf("MemoryBytes %d, saved %d", m.MemoryBytes(), first.Len())
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		if _, err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save → load → save changed the bytes")
		}
	})
}
