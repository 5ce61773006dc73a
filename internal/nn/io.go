package nn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"c2nn/internal/tensor"
)

// Binary model format (the stand-in for the stored PyTorch module of
// Fig. 1): little-endian, length-prefixed sections.
const (
	magic   = 0x43324E4E // "C2NN"
	version = 1
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Save writes the model. It returns the number of bytes written (the
// Table I "Memory" column measures this file).
func (m *Model) Save(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	le := binary.LittleEndian

	wu32 := func(v uint32) { binary.Write(bw, le, v) }
	wi32 := func(v int32) { binary.Write(bw, le, v) }
	wstr := func(s string) {
		wu32(uint32(len(s)))
		bw.WriteString(s)
	}
	wi32s := func(v []int32) {
		wu32(uint32(len(v)))
		binary.Write(bw, le, v)
	}
	wf32s := func(v []float32) {
		wu32(uint32(len(v)))
		binary.Write(bw, le, v)
	}

	wu32(magic)
	wu32(version)
	wstr(m.CircuitName)
	wi32(int32(m.L))
	binary.Write(bw, le, m.GateCount)
	wu32(boolU32(m.Merged))

	n := m.Net
	wi32(int32(n.NumPIs))
	wi32(int32(n.TotalUnits))
	wu32(uint32(len(n.Layers)))
	for i := range n.Layers {
		l := &n.Layers[i]
		wi32(n.SegStart[i])
		wu32(boolU32(l.Threshold))
		wi32(int32(l.W.Rows))
		wi32(int32(l.W.Cols))
		wi32s(l.W.RowPtr)
		wi32s(l.W.Col)
		wf32s(l.W.Val)
		wf32s(l.Bias)
	}

	wports := func(ports []PortMap) {
		wu32(uint32(len(ports)))
		for _, p := range ports {
			wstr(p.Name)
			wi32s(p.Units)
		}
	}
	wports(m.Inputs)
	wports(m.Outputs)

	wu32(uint32(len(m.Feedback)))
	for _, f := range m.Feedback {
		wi32(f.FromUnit)
		wi32(f.ToPI)
		wu32(boolU32(f.Init))
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

func boolU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ErrFormat is wrapped by every error Load returns: the input is not a
// well-formed model file, or could not be read to its end.
var ErrFormat = errors.New("nn: malformed model file")

// reader decodes the little-endian sections of a model file. The first
// error sticks; every later read returns zero values.
type reader struct {
	r   io.Reader
	err error
}

func (r *reader) read(v any) {
	if r.err == nil {
		r.err = binary.Read(r.r, binary.LittleEndian, v)
	}
}

func (r *reader) u32() uint32 {
	var v uint32
	r.read(&v)
	return v
}

// count reads a length prefix and rejects one above max.
func (r *reader) count(what string, max uint32) int {
	n := r.u32()
	if r.err == nil && n > max {
		r.err = fmt.Errorf("nn: unreasonable %s %d", what, n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	buf := make([]byte, r.count("string length", 1<<20))
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, buf)
	}
	return string(buf)
}

// array reads a length-prefixed array chunk by chunk, so the prefix
// costs no more memory than the bytes that actually follow it.
func array[T int32 | float32](r *reader) []T {
	const chunk = 1 << 16
	rest := r.count("array length", 1<<28)
	v := make([]T, 0, min(rest, chunk))
	for rest > 0 && r.err == nil {
		k := min(rest, chunk)
		v = slices.Grow(v, k)[:len(v)+k]
		r.read(v[len(v)-k:])
		rest -= k
	}
	return v
}

// Load reads a model written by Save. Memory use is bounded by the
// bytes r supplies, whatever its length prefixes claim.
func Load(rd io.Reader) (*Model, error) {
	r := &reader{r: bufio.NewReader(rd)}
	if r.u32() != magic && r.err == nil {
		r.err = errors.New("nn: bad magic (not a C2NN model file)")
	}
	if v := r.u32(); v != version && r.err == nil {
		r.err = fmt.Errorf("nn: unsupported model version %d", v)
	}
	m := &Model{Net: &Network{}}
	m.CircuitName = r.str()
	m.L = int(int32(r.u32()))
	r.read(&m.GateCount)
	m.Merged = r.u32() == 1

	n := m.Net
	n.NumPIs = int(int32(r.u32()))
	n.TotalUnits = int(int32(r.u32()))
	for i := r.count("layer count", 1<<24); i > 0 && r.err == nil; i-- {
		n.SegStart = append(n.SegStart, int32(r.u32()))
		l := Layer{Threshold: r.u32() == 1, W: &tensor.CSR{}}
		l.W.Rows, l.W.Cols = int(int32(r.u32())), int(int32(r.u32()))
		l.W.RowPtr, l.W.Col, l.W.Val = array[int32](r), array[int32](r), array[float32](r)
		if l.Bias = array[float32](r); len(l.Bias) == 0 {
			l.Bias = nil // linear layers carry none
		}
		n.Layers = append(n.Layers, l)
	}
	for _, ports := range []*[]PortMap{&m.Inputs, &m.Outputs} {
		for i := r.count("port count", 1<<20); i > 0 && r.err == nil; i-- {
			*ports = append(*ports, PortMap{Name: r.str(), Units: array[int32](r)})
		}
	}
	for i := r.count("feedback count", 1<<24); i > 0 && r.err == nil; i-- {
		m.Feedback = append(m.Feedback, Feedback{
			FromUnit: int32(r.u32()), ToPI: int32(r.u32()), Init: r.u32() == 1,
		})
	}
	if r.err == nil {
		r.err = m.Validate()
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFormat, r.err)
	}
	return m, nil
}

// SaveFile writes the model to a path and returns the file size.
func (m *Model) SaveFile(path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := m.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// LoadFile reads a model from a path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// MemoryBytes reports the serialised model size without writing it out.
// It mirrors Save byte for byte (pinned by TestMemoryBytesMatchesSave).
func (m *Model) MemoryBytes() int64 {
	var n int64
	str := func(s string) { n += 4 + int64(len(s)) }
	arr := func(elems int) { n += 4 + 4*int64(elems) }

	n += 4 + 4 // magic, version
	str(m.CircuitName)
	n += 4 + 8 + 4 // L, gateCount, merged

	n += 4 + 4 + 4 // numPIs, totalUnits, layer count
	for i := range m.Net.Layers {
		l := &m.Net.Layers[i]
		n += 4 + 4 + 4 + 4 // segStart, threshold, rows, cols
		arr(len(l.W.RowPtr))
		arr(len(l.W.Col))
		arr(len(l.W.Val))
		arr(len(l.Bias))
	}
	for _, ports := range [][]PortMap{m.Inputs, m.Outputs} {
		n += 4
		for _, p := range ports {
			str(p.Name)
			arr(len(p.Units))
		}
	}
	n += 4 + 12*int64(len(m.Feedback))
	return n
}
