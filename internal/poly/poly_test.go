package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"c2nn/internal/truthtab"
)

func randomTable(rng *rand.Rand, k int) truthtab.Table {
	t := truthtab.New(k)
	for i := range t.Words {
		t.Words[i] = rng.Uint64()
	}
	// Re-mask via an identity op.
	return t.Not().Not()
}

// Property: FromTable inverts Table() — the polynomial reproduces the
// function exactly (Boolean-valued on all assignments).
func TestFromTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k <= 10; k++ {
		for trial := 0; trial < 20; trial++ {
			tab := randomTable(rng, k)
			p := FromTable(tab)
			if !p.Table().Equal(tab) {
				t.Fatalf("k=%d: round trip failed for %v", k, tab)
			}
		}
	}
}

// Property: the two converters agree term for term.
func TestConvertersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := 0; k <= 9; k++ {
		for trial := 0; trial < 10; trial++ {
			tab := randomTable(rng, k)
			a := FromTable(tab)
			b := FromTableDNF(tab)
			if !equalPoly(a, b) {
				t.Fatalf("k=%d: converters disagree:\nalg1: %v\ndnf:  %v", k, a, b)
			}
		}
	}
}

func equalPoly(a, b Poly) bool {
	if a.NumVars != b.NumVars || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

func TestKnownPolynomials(t *testing.T) {
	// AND(x0,x1) = x0·x1
	and := FromTable(truthtab.Var(2, 0).And(truthtab.Var(2, 1)))
	if len(and.Terms) != 1 || and.Terms[0] != (Term{Mask: 3, Coeff: 1}) {
		t.Errorf("AND poly = %v", and)
	}
	// OR(x0,x1) = x0 + x1 - x0·x1
	or := FromTable(truthtab.Var(2, 0).Or(truthtab.Var(2, 1)))
	want := []Term{{1, 1}, {2, 1}, {3, -1}}
	if len(or.Terms) != 3 || or.Terms[0] != want[0] || or.Terms[1] != want[1] || or.Terms[2] != want[2] {
		t.Errorf("OR poly = %v", or)
	}
	// XOR(x0,x1) = x0 + x1 - 2·x0·x1
	xor := FromTable(truthtab.Var(2, 0).Xor(truthtab.Var(2, 1)))
	if xor.Terms[2].Coeff != -2 {
		t.Errorf("XOR poly = %v", xor)
	}
	// NOT(x0) = 1 - x0
	not := FromTable(truthtab.Var(1, 0).Not())
	if len(not.Terms) != 2 || not.Terms[0] != (Term{0, 1}) || not.Terms[1] != (Term{1, -1}) {
		t.Errorf("NOT poly = %v", not)
	}
	// Constant one over 3 vars: single empty-mask term.
	one := FromTable(truthtab.Const(3, true))
	if len(one.Terms) != 1 || one.Terms[0] != (Term{0, 1}) {
		t.Errorf("const poly = %v", one)
	}
}

func TestMultiAND(t *testing.T) {
	// The paper's §V example: a wide AND has exactly one monomial, the
	// product of all inputs.
	k := 9
	tab := truthtab.Const(k, true)
	for v := 0; v < k; v++ {
		tab = tab.And(truthtab.Var(k, v))
	}
	p := FromTable(tab)
	if len(p.Terms) != 1 || p.Terms[0].Mask != uint32(1<<uint(k))-1 || p.Terms[0].Coeff != 1 {
		t.Fatalf("AND9 poly = %v", p)
	}
	if p.Degree() != k || p.Sparsity() <= 0.99 {
		t.Errorf("degree=%d sparsity=%f", p.Degree(), p.Sparsity())
	}
}

func TestParityIsDense(t *testing.T) {
	// Parity has all 2^k - 1 non-empty monomials: the worst case for
	// polynomial sparsity (§III-B3's exponential hidden-layer bound).
	k := 6
	tab := truthtab.Const(k, false)
	for v := 0; v < k; v++ {
		tab = tab.Xor(truthtab.Var(k, v))
	}
	p := FromTable(tab)
	if len(p.Terms) != 1<<uint(k)-1 {
		t.Fatalf("parity terms = %d, want %d", len(p.Terms), 1<<uint(k)-1)
	}
}

func TestEvalMatchesTable(t *testing.T) {
	f := func(rows uint16) bool {
		tab := truthtab.New(4)
		for i := 0; i < 16; i++ {
			tab.SetBit(i, rows>>uint(i)&1 == 1)
		}
		p := FromTable(tab)
		for x := uint32(0); x < 16; x++ {
			want := int64(0)
			if tab.Bit(int(x)) {
				want = 1
			}
			if p.Eval(x) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNegate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tab := randomTable(rng, 5)
		p := FromTable(tab)
		n := p.Negate()
		if !n.Table().Equal(tab.Not()) {
			t.Fatalf("Negate failed for %v", tab)
		}
	}
}

func TestConstAndNonConstTerms(t *testing.T) {
	p := FromTable(truthtab.Var(2, 0).Not()) // 1 - x0
	if p.ConstTerm() != 1 {
		t.Errorf("const term = %d", p.ConstTerm())
	}
	nc := p.NonConstTerms()
	if len(nc) != 1 || nc[0].Mask != 1 {
		t.Errorf("non-const terms = %v", nc)
	}
	q := FromTable(truthtab.Var(2, 0)) // x0: no const term
	if q.ConstTerm() != 0 || len(q.NonConstTerms()) != 1 {
		t.Errorf("q = %v", q)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := randomTable(rng, 6)
	p := FromTable(tab)
	d := p.Dense()
	nz := 0
	for _, c := range d {
		if c != 0 {
			nz++
		}
	}
	if nz != p.NumTerms() {
		t.Fatalf("dense nnz %d != terms %d", nz, p.NumTerms())
	}
}

func TestString(t *testing.T) {
	p := FromTable(truthtab.Var(2, 0).Xor(truthtab.Var(2, 1)))
	if s := p.String(); s != "x0 + x1 - 2x0x1" {
		t.Errorf("String = %q", s)
	}
	if (Poly{NumVars: 2}).String() != "0" {
		t.Error("empty poly string")
	}
}

func TestDegreeBoundedByVars(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(8)
		p := FromTable(randomTable(rng, k))
		if p.Degree() > k {
			t.Fatalf("degree %d > k %d", p.Degree(), k)
		}
	}
}
