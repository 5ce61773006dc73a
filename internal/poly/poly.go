// Package poly implements the multi-linear polynomial representation of
// Boolean functions (paper Eq. 1):
//
//	f(x_1,...,x_n) = Σ_{S ⊆ {1..n}} w_S · Π_{s∈S} x_s
//
// with integer coefficients w_S. Two converters from truth tables are
// provided:
//
//   - FromTable: the paper's Algorithm 1, a divide-and-conquer
//     coefficient transform running in O(L·2^L) operations;
//   - FromTableDNF: the naive route through the Sum-of-Products form,
//     expanding each minterm's product of literals, in O(2^L · 2^L)
//     operations — the blue baseline of Fig. 4.
//
// Polynomials of Boolean functions over binary inputs are exact: Eval
// returns 0 or 1 for every assignment, which is what lets the neural
// network drop bias and threshold on output neurons (§III-B3).
package poly

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"c2nn/internal/truthtab"
)

// Term is one monomial: Coeff · Π_{i ∈ Mask} x_i.
type Term struct {
	Mask  uint32
	Coeff int32
}

// Poly is a multi-linear polynomial in NumVars variables with integer
// coefficients, stored sparsely with terms ordered by ascending mask.
type Poly struct {
	NumVars int
	Terms   []Term
}

// FromTable converts a truth table to its multi-linear polynomial with
// the divide-and-conquer transform of Algorithm 1. The recursion splits
// the table on the top variable: [w_left, w_right - w_left].
func FromTable(t truthtab.Table) Poly {
	n := t.NumVars
	coeffs := make([]int32, t.Size())
	for i := range coeffs {
		if t.Bit(i) {
			coeffs[i] = 1
		}
	}
	lutToPoly(coeffs)
	return fromDense(n, coeffs)
}

// lutToPoly is Algorithm 1 operating in place: the value representation
// y becomes the coefficient representation w. The merging step of the
// two half-size sub-problems is w = [w_left, w_right − w_left].
func lutToPoly(y []int32) {
	if len(y) <= 1 {
		return // base case: a 0-variable table is its own coefficient
	}
	half := len(y) / 2
	left, right := y[:half], y[half:]
	lutToPoly(left)  // first sub-problem
	lutToPoly(right) // second sub-problem
	for i := range right {
		right[i] -= left[i] // merging
	}
}

// FromTableDNF converts via the Sum-of-Products route (Fig. 4 baseline):
// every satisfying row contributes the expansion of its minterm
// Π set-bits x_i · Π clear-bits (1−x_j), which costs up to 2^L terms per
// row.
func FromTableDNF(t truthtab.Table) Poly {
	n := t.NumVars
	coeffs := make([]int64, t.Size())
	full := uint32(t.Size() - 1)
	for row := 0; row < t.Size(); row++ {
		if !t.Bit(row) {
			continue
		}
		pos := uint32(row)
		neg := full &^ pos
		// Expand Π_{j∈neg}(1 - x_j): subset sum with alternating sign.
		for sub := neg; ; sub = (sub - 1) & neg {
			sign := int64(1)
			if bits.OnesCount32(sub)%2 == 1 {
				sign = -1
			}
			coeffs[pos|sub] += sign
			if sub == 0 {
				break
			}
		}
	}
	c32 := make([]int32, len(coeffs))
	for i, c := range coeffs {
		c32[i] = int32(c)
	}
	return fromDense(n, c32)
}

func fromDense(n int, coeffs []int32) Poly {
	p := Poly{NumVars: n}
	for mask, c := range coeffs {
		if c != 0 {
			p.Terms = append(p.Terms, Term{Mask: uint32(mask), Coeff: c})
		}
	}
	return p
}

// Dense returns the full coefficient vector (index = variable mask).
func (p Poly) Dense() []int32 {
	out := make([]int32, 1<<uint(p.NumVars))
	for _, t := range p.Terms {
		out[t.Mask] = t.Coeff
	}
	return out
}

// Eval computes the polynomial at a binary assignment (bit i of x is
// variable i): the sum of coefficients whose mask is covered by x.
func (p Poly) Eval(x uint32) int64 {
	var sum int64
	for _, t := range p.Terms {
		if t.Mask&^x == 0 {
			sum += int64(t.Coeff)
		}
	}
	return sum
}

// Table reconstructs the truth table (inverse of FromTable); it panics
// if the polynomial is not Boolean-valued on some assignment.
func (p Poly) Table() truthtab.Table {
	t := truthtab.New(p.NumVars)
	for x := 0; x < t.Size(); x++ {
		switch p.Eval(uint32(x)) {
		case 0:
		case 1:
			t.SetBit(x, true)
		default:
			panic(fmt.Sprintf("poly: non-Boolean value %d at assignment %b", p.Eval(uint32(x)), x))
		}
	}
	return t
}

// Degree returns the largest monomial size (0 for constants).
func (p Poly) Degree() int {
	d := 0
	for _, t := range p.Terms {
		if n := bits.OnesCount32(t.Mask); n > d {
			d = n
		}
	}
	return d
}

// NumTerms returns the number of non-zero terms.
func (p Poly) NumTerms() int { return len(p.Terms) }

// ConstTerm returns the coefficient of the empty monomial w_∅.
func (p Poly) ConstTerm() int32 {
	if len(p.Terms) > 0 && p.Terms[0].Mask == 0 {
		return p.Terms[0].Coeff
	}
	return 0
}

// NonConstTerms returns the terms with non-empty monomials (these become
// the hidden neurons, Fig. 2).
func (p Poly) NonConstTerms() []Term {
	if len(p.Terms) > 0 && p.Terms[0].Mask == 0 {
		return p.Terms[1:]
	}
	return p.Terms
}

// Sparsity returns the fraction of the 2^n possible coefficients that
// are zero — the property §II-B links to circuit complexity and §III-F
// exploits for GPU simulation.
func (p Poly) Sparsity() float64 {
	total := 1 << uint(p.NumVars)
	return 1 - float64(len(p.Terms))/float64(total)
}

// Negate returns 1 - p (the polynomial of the complemented function).
func (p Poly) Negate() Poly {
	out := Poly{NumVars: p.NumVars, Terms: make([]Term, 0, len(p.Terms)+1)}
	hasConst := false
	for _, t := range p.Terms {
		c := -t.Coeff
		if t.Mask == 0 {
			c = 1 - t.Coeff
			hasConst = true
			if c == 0 {
				continue
			}
		}
		out.Terms = append(out.Terms, Term{Mask: t.Mask, Coeff: c})
	}
	if !hasConst {
		out.Terms = append(out.Terms, Term{Mask: 0, Coeff: 1})
		sort.Slice(out.Terms, func(i, j int) bool { return out.Terms[i].Mask < out.Terms[j].Mask })
	}
	return out
}

// String renders the polynomial in human-readable form.
func (p Poly) String() string {
	if len(p.Terms) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, t := range p.Terms {
		if i > 0 {
			if t.Coeff >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
			}
		} else if t.Coeff < 0 {
			b.WriteString("-")
		}
		c := t.Coeff
		if c < 0 {
			c = -c
		}
		if c != 1 || t.Mask == 0 {
			fmt.Fprintf(&b, "%d", c)
		}
		for v := 0; v < p.NumVars; v++ {
			if t.Mask>>uint(v)&1 == 1 {
				fmt.Fprintf(&b, "x%d", v)
			}
		}
	}
	return b.String()
}
