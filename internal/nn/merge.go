package nn

import (
	"fmt"
	"slices"

	"c2nn/internal/tensor"
)

// linform is the exact value of a folded unit over surviving units:
// cst + Σ coefs[i]·units[i], units ascending.
type linform struct {
	cst          int64
	units, coefs []int32
}

// merger is the substitution state of one Merge.
type merger struct {
	// at[u] places source unit u: its number in the merged network if
	// it survives (constant, PIs, threshold rows, final layer), else ^i
	// with forms[i] the value of that folded linear row.
	at    []int32
	forms []linform
	// The row being gathered: coefficient by surviving unit (zero
	// outside touched) and the constant that folded forms contributed.
	coef    []int64
	touched []int32
	cst     int64
}

func (g *merger) put(unit int32, c int64) {
	if g.coef[unit] == 0 { // or cancelled to zero: take skips what that leaves
		g.touched = append(g.touched, unit)
	}
	g.coef[unit] += c
}

// add gathers w times source unit u, substituting its form if folded.
func (g *merger) add(u int32, w int64) {
	if n := g.at[u]; n >= 0 {
		g.put(n, w)
		return
	}
	f := &g.forms[^g.at[u]]
	g.cst += w * f.cst
	for k, unit := range f.units {
		g.put(unit, w*int64(f.coefs[k]))
	}
}

// addRow gathers row r of w, whose weights must be integers: that is
// what makes a linear layer exact (§III-B3).
func (g *merger) addRow(w *tensor.CSR, r int) error {
	for p := w.RowPtr[r]; p < w.RowPtr[r+1]; p++ {
		v := w.Val[p]
		if float32(int64(v)) != v {
			return fmt.Errorf("nn: weight %v is not an integer, the layer is not exact", v)
		}
		g.add(w.Col[p], int64(v))
	}
	return nil
}

// take returns the gathered row as a form — units ascending, so that
// the CSR layout and everything lowered from it is the same on every
// run — and clears it. The constant unit's coefficient joins the
// constant unless keepConst. Weights must stay within the integers
// float32 holds exactly (§III-E).
func (g *merger) take(keepConst bool) (linform, error) {
	f := linform{cst: g.cst}
	slices.Sort(g.touched)
	for _, u := range g.touched {
		c := g.coef[u]
		g.coef[u] = 0
		switch {
		case c == 0:
		case c > 1<<24 || c < -1<<24:
			return f, fmt.Errorf("nn: merged weight %d on unit %d is not exact in float32", c, u)
		case u == ConstUnit && !keepConst:
			f.cst += c
		default:
			f.units, f.coefs = append(f.units, u), append(f.coefs, int32(c))
		}
	}
	g.touched, g.cst = g.touched[:0], 0
	return f, nil
}

// surviving renumbers the units a port, a feedback or the trace names.
func (g *merger) surviving(units []int32, what string) ([]int32, error) {
	out := make([]int32, len(units))
	for i, u := range units {
		if u < 0 || int(u) >= len(g.at) || g.at[u] < 0 {
			return nil, fmt.Errorf("nn: %s reads unit %d, which merging folds away", what, u)
		}
		out[i] = g.at[u]
	}
	return out, nil
}

// Merge is the depth-halving pass of §III-D (Fig. 5), applied to the
// network Build makes. A linear layer is exact, so each one before the
// last is folded into the rows that read it: a reader's weight on a
// folded unit is multiplied through that unit's row (the weight product
// of Fig. 5), the constants that surface move into the reader's bias,
// and the surviving units are renumbered. Ports, feedback and the LUT
// trace follow the renumbering; a LUT's value form becomes the
// combination of its own term units. The result holds the same 0/1
// value on every surviving unit; m is left untouched, and a network
// with no interior linear layer comes back as an equal copy.
func Merge(m *Model) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	src := m.Net
	g := &merger{at: make([]int32, src.TotalUnits), coef: make([]int64, src.TotalUnits)}
	units := int32(1 + src.NumPIs)
	for u := int32(0); u < units; u++ {
		g.at[u] = u
	}
	dst := &Network{NumPIs: src.NumPIs}
	layerAt := make([]int32, len(src.Layers)) // merged index of a source layer, -1 folded
	for li := range src.Layers {
		l := &src.Layers[li]
		fold := !l.Threshold && li != len(src.Layers)-1
		// Forms of different LUTs share no term unit, so what the weights
		// expand to, plus a surfaced constant per row, is all but the
		// layer's size; growing by append leaves the copies as garbage.
		nnz := l.W.Rows
		for _, u := range l.W.Col {
			if g.at[u] >= 0 {
				nnz++
			} else {
				nnz += len(g.forms[^g.at[u]].units)
			}
		}
		w := &tensor.CSR{Rows: l.W.Rows, Cols: int(units), RowPtr: make([]int32, 1, l.W.Rows+1),
			Col: make([]int32, 0, nnz), Val: make([]float32, 0, nnz)}
		var bias []float32
		for r := 0; r < l.W.Rows; r++ {
			if err := g.addRow(l.W, r); err != nil {
				return nil, err
			}
			if l.Threshold {
				bias = append(bias, l.Bias[r]-float32(g.cst))
			} else if !fold && g.cst != 0 {
				g.put(ConstUnit, g.cst)
			}
			f, err := g.take(!fold)
			if err != nil {
				return nil, err
			}
			if fold {
				g.at[src.SegStart[li]+int32(r)] = ^int32(len(g.forms))
				g.forms = append(g.forms, f)
				continue
			}
			g.at[src.SegStart[li]+int32(r)] = units + int32(r)
			w.Col = append(w.Col, f.units...)
			for _, c := range f.coefs {
				w.Val = append(w.Val, float32(c))
			}
			w.RowPtr = append(w.RowPtr, int32(len(w.Col)))
		}
		if fold {
			layerAt[li] = -1
			continue
		}
		layerAt[li] = int32(len(dst.Layers))
		dst.Layers = append(dst.Layers, Layer{W: w, Bias: bias, Threshold: l.Threshold})
		dst.SegStart = append(dst.SegStart, units)
		units += int32(l.W.Rows)
	}
	dst.TotalUnits = int(units)

	out := *m
	out.Net, out.Merged, out.Trace = dst, true, nil
	out.Inputs, out.Outputs = slices.Clone(m.Inputs), slices.Clone(m.Outputs)
	out.Feedback = slices.Clone(m.Feedback)
	var err error
	for _, ports := range [][]PortMap{out.Inputs, out.Outputs} {
		for i := range ports {
			if ports[i].Units, err = g.surviving(ports[i].Units, "port "+ports[i].Name); err != nil {
				return nil, err
			}
		}
	}
	for i := range out.Feedback {
		from, err := g.surviving([]int32{out.Feedback[i].FromUnit}, "flip-flop feedback")
		if err != nil {
			return nil, err
		}
		out.Feedback[i].FromUnit = from[0]
	}
	if m.Trace != nil {
		if out.Trace, err = g.trace(m.Trace, layerAt); err != nil {
			return nil, err
		}
	}
	return &out, nil
}

// trace rewrites the LUT provenance for the merged network.
func (g *merger) trace(tr *Trace, layerAt []int32) (*Trace, error) {
	out := &Trace{LayerOfLevel: slices.Clone(tr.LayerOfLevel), LUTs: slices.Clone(tr.LUTs)}
	for lv, ly := range out.LayerOfLevel {
		if ly >= 0 {
			out.LayerOfLevel[lv] = layerAt[ly]
		}
	}
	for u := range out.LUTs {
		lt := &out.LUTs[u]
		var err error
		if lt.TermUnits, err = g.surviving(lt.TermUnits, fmt.Sprintf("the trace of LUT %d", u)); err != nil {
			return nil, err
		}
		lt.TermMasks = slices.Clone(lt.TermMasks)
		g.cst = int64(lt.Cst)
		for i, vu := range lt.VUnits {
			g.add(vu, int64(lt.VCoefs[i]))
		}
		f, err := g.take(false)
		if err != nil {
			return nil, err
		}
		lt.Cst, lt.VUnits, lt.VCoefs = int32(f.cst), f.units, f.coefs
	}
	return out, nil
}
