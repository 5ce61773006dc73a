package nn

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"c2nn/internal/tensor"
)

// saved returns the model's serialised bytes.
func saved(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeShape pins what the pass does to the layer chain and that it
// is a function: the source is untouched, merging twice changes nothing.
func TestMergeShape(t *testing.T) {
	for _, k := range []int{3, 5, 8} {
		_, src := compile(t, seqSrc, "seq", k, false)
		before := saved(t, src)
		traceBefore := *src.Trace
		merged, err := Merge(src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, saved(t, src)) || !reflect.DeepEqual(traceBefore, *src.Trace) {
			t.Fatalf("K=%d: Merge modified its argument", k)
		}
		if ds := merged.Lint(); len(ds) != 0 {
			t.Fatalf("K=%d: merged model lints: %v", k, ds)
		}
		if !merged.Merged || src.Merged {
			t.Errorf("K=%d: Merged flags: source %v, result %v", k, src.Merged, merged.Merged)
		}
		if got, want := len(merged.Net.Layers), len(src.Net.Layers)/2+1; got != want {
			t.Errorf("K=%d: %d layers from %d, want %d", k, got, len(src.Net.Layers), want)
		}
		for li, l := range merged.Net.Layers {
			if last := li == len(merged.Net.Layers)-1; l.Threshold == last {
				t.Errorf("K=%d: layer %d of %d has Threshold=%v", k, li, len(merged.Net.Layers), l.Threshold)
			}
		}
		again, err := Merge(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, merged), saved(t, again)) || !reflect.DeepEqual(merged.Trace, again.Trace) {
			t.Errorf("K=%d: merging a merged model changed it", k)
		}
	}
}

// TestMergeTrace checks the rewritten provenance against the network it
// describes: a LUT's value form spans exactly its own term units, and
// evaluating it on the merged activations gives the signal unit of the
// source network.
func TestMergeTrace(t *testing.T) {
	_, src := compile(t, seqSrc, "seq", 4, false)
	merged, err := Merge(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		pis := make([]float32, src.Net.NumPIs)
		for i := range pis {
			pis[i] = float32(rng.Intn(2))
		}
		a, b := src.Net.EvalSingle(pis), merged.Net.EvalSingle(pis)
		for u := range src.Trace.LUTs {
			st, mt := &src.Trace.LUTs[u], &merged.Trace.LUTs[u]
			if !reflect.DeepEqual(mt.VUnits, mt.TermUnits) || !reflect.DeepEqual(mt.TermMasks, st.TermMasks) {
				t.Fatalf("LUT %d: value units %v, term units %v", u, mt.VUnits, mt.TermUnits)
			}
			if ly := merged.Trace.LayerOfLevel[mt.Level]; ly < 0 || !merged.Net.Layers[ly].Threshold {
				t.Fatalf("LUT %d: level %d maps to layer %d", u, mt.Level, ly)
			}
			v := float32(mt.Cst)
			for i, unit := range mt.VUnits {
				v += float32(mt.VCoefs[i]) * b[unit]
			}
			if want := a[st.VUnits[0]]; v != want {
				t.Fatalf("LUT %d: merged value form gives %v, signal unit holds %v", u, v, want)
			}
			for i, unit := range st.TermUnits {
				if a[unit] != b[mt.TermUnits[i]] {
					t.Fatalf("LUT %d term %d differs between the forms", u, i)
				}
			}
		}
	}
}

// TestMergeRejects covers the inputs the pass cannot fold exactly.
func TestMergeRejects(t *testing.T) {
	fresh := func() *Model {
		_, m := compile(t, seqSrc, "seq", 4, false)
		return m
	}
	cases := []struct {
		name, want string
		mutate     func(m *Model)
	}{
		{"fractional weight", "not an integer", func(m *Model) { m.Net.Layers[1].W.Val[0] = 0.5 }},
		{"port on a folded unit", "folds away", func(m *Model) { m.Outputs[0].Units[0] = m.Net.SegStart[1] }},
		{"feedback from a folded unit", "folds away", func(m *Model) { m.Feedback[0].FromUnit = m.Net.SegStart[1] }},
		{"invalid network", "NN003", func(m *Model) { m.Net.Layers[0].W.Col[0] = int32(m.Net.TotalUnits) }},
		{"weight beyond float32", "not exact in float32", func(m *Model) {
			l := &m.Net.Layers[1]
			for p := range l.W.Val {
				l.W.Val[p] = 1 << 23
			}
			for li := 2; li < len(m.Net.Layers); li++ {
				for p := range m.Net.Layers[li].W.Val {
					m.Net.Layers[li].W.Val[p] = 4
				}
			}
		}},
	}
	for _, tc := range cases {
		m := fresh()
		tc.mutate(m)
		if _, err := Merge(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMergeGeneralChain merges a hand-built network outside the shape
// Build produces — two linear layers in a row, a threshold row that
// reads the constant unit and a folded unit twice over — and compares
// every surviving unit on all inputs.
func TestMergeGeneralChain(t *testing.T) {
	csr := func(rows, cols int, e ...tensor.Triple) *tensor.CSR {
		w, err := tensor.FromTriples(rows, cols, e)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Units: 0 const, 1-2 PIs a b; L0 (linear) u3 = a+b, u4 = 1-a;
	// L1 (linear) u5 = u3-u4+1 = 2a+b; L2 (threshold) u6 = [u5+u3-1·const > 1]
	// = [3a+2b > 2]; L3 (final linear) u7 = u6, u8 = u4+u6.
	m := &Model{Net: &Network{
		NumPIs: 2, TotalUnits: 9, SegStart: []int32{3, 5, 6, 7},
		Layers: []Layer{
			{W: csr(2, 3, tensor.Triple{Row: 0, Col: 1, Val: 1}, tensor.Triple{Row: 0, Col: 2, Val: 1},
				tensor.Triple{Row: 1, Col: 0, Val: 1}, tensor.Triple{Row: 1, Col: 1, Val: -1})},
			{W: csr(1, 5, tensor.Triple{Row: 0, Col: 3, Val: 1}, tensor.Triple{Row: 0, Col: 4, Val: -1},
				tensor.Triple{Row: 0, Col: 0, Val: 1})},
			{W: csr(1, 6, tensor.Triple{Row: 0, Col: 5, Val: 1}, tensor.Triple{Row: 0, Col: 3, Val: 1},
				tensor.Triple{Row: 0, Col: 0, Val: -1}), Bias: []float32{1}, Threshold: true},
			{W: csr(2, 7, tensor.Triple{Row: 0, Col: 6, Val: 1},
				tensor.Triple{Row: 1, Col: 4, Val: 1}, tensor.Triple{Row: 1, Col: 6, Val: 1})},
		}},
		Outputs: []PortMap{{Name: "y", Units: []int32{7, 8}}},
	}
	merged, err := Merge(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Net.Layers) != 2 || merged.Net.TotalUnits != 6 {
		t.Fatalf("merged to %d layers, %d units", len(merged.Net.Layers), merged.Net.TotalUnits)
	}
	for in := 0; in < 4; in++ {
		pis := []float32{float32(in & 1), float32(in >> 1)}
		a, b := m.Net.EvalSingle(pis), merged.Net.EvalSingle(pis)
		for i, u := range m.Outputs[0].Units {
			if got, want := b[merged.Outputs[0].Units[i]], a[u]; got != want {
				t.Errorf("a=%v b=%v: y[%d] = %v, want %v", pis[0], pis[1], i, got, want)
			}
		}
	}
}
