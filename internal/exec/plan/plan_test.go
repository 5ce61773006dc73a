package plan

import (
	"math/rand"
	"testing"

	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/synth"
	"c2nn/internal/tensor"
)

const crcSrc = `
module crc8(input clk, rst, input en, input [7:0] din, output [7:0] crc,
            output match);
  reg [7:0] r;
  wire [7:0] next;
  assign next = {r[6:0], 1'b0} ^ ((r[7] ^ din[0]) ? 8'h07 : 8'h00);
  always @(posedge clk) begin
    if (rst) r <= 8'd0;
    else if (en) r <= next ^ din;
  end
  assign crc = r;
  assign match = r == 8'hA5;
endmodule`

func buildModel(t *testing.T, k int, merge bool) *nn.Model {
	t.Helper()
	nl, err := synth.ElaborateSource("crc8", map[string]string{"crc8.v": crcSrc})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{L: k})
	if err != nil {
		t.Fatal(err)
	}
	if merge {
		if model, err = nn.Merge(model); err != nil {
			t.Fatal(err)
		}
	}
	return model
}

func compilePlan(t *testing.T, k int, merge bool) (*nn.Model, *Plan) {
	t.Helper()
	model := buildModel(t, k, merge)
	p, err := Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	return model, p
}

func TestCompileLintClean(t *testing.T) {
	for _, merge := range []bool{true, false} {
		for _, k := range []int{3, 5} {
			model, p := compilePlan(t, k, merge)
			if ds := p.Lint(); len(ds) != 0 {
				t.Fatalf("merge=%v K=%d: plan lint reported %d diagnostics, first: %s",
					merge, k, len(ds), ds[0])
			}
			if p.ArenaUnits > model.Net.TotalUnits {
				t.Fatalf("merge=%v K=%d: arena %d exceeds flat layout %d",
					merge, k, p.ArenaUnits, model.Net.TotalUnits)
			}
			if len(p.Layers) != len(model.Net.Layers) {
				t.Fatalf("merge=%v K=%d: %d plan layers for %d network layers",
					merge, k, len(p.Layers), len(model.Net.Layers))
			}
		}
	}
}

// TestArenaReuse checks that liveness analysis actually shrinks the
// activation footprint on a deep (unmerged) network, where interior
// layer activations die quickly.
func TestArenaReuse(t *testing.T) {
	model, p := compilePlan(t, 3, false)
	if p.ArenaUnits >= model.Net.TotalUnits {
		t.Fatalf("unmerged K=3 network: arena %d did not shrink below flat layout %d",
			p.ArenaUnits, model.Net.TotalUnits)
	}
	t.Logf("arena %d rows for %d units (%.0f%%)", p.ArenaUnits, model.Net.TotalUnits,
		100*float64(p.ArenaUnits)/float64(model.Net.TotalUnits))
}

// TestPlanSemantics runs a scalar forward pass in the plan's arena-slot
// space and in the model's flat unit space and requires the layer
// outputs to agree — validating column rewriting, block placement and
// the integer threshold fusion at once.
func TestPlanSemantics(t *testing.T) {
	for _, merge := range []bool{true, false} {
		model, p := compilePlan(t, 4, merge)
		net := model.Net
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 20; trial++ {
			units := make([]float32, net.TotalUnits)
			units[0] = 1
			for u := 1; u <= net.NumPIs; u++ {
				units[u] = float32(rng.Intn(2))
			}
			arena := make([]int32, p.ArenaUnits)
			for u := 0; u <= net.NumPIs; u++ {
				arena[p.Slot[u]] = int32(units[u])
			}
			for li := range net.Layers {
				ml := &net.Layers[li]
				pl := &p.Layers[li]
				seg := net.SegStart[li]
				for r := 0; r < ml.W.Rows; r++ {
					var fsum float32
					for q := ml.W.RowPtr[r]; q < ml.W.RowPtr[r+1]; q++ {
						fsum += ml.W.Val[q] * units[ml.W.Col[q]]
					}
					if ml.Threshold {
						if fsum > ml.Bias[r] {
							units[int(seg)+r] = 1
						} else {
							units[int(seg)+r] = 0
						}
					} else {
						units[int(seg)+r] = fsum
					}
					var isum int32
					for q := pl.WInt.RowPtr[r]; q < pl.WInt.RowPtr[r+1]; q++ {
						isum += pl.WInt.Val[q] * arena[pl.WInt.Col[q]]
					}
					var bit int32
					if pl.Linear() {
						bit = isum
					} else if isum > pl.Thresh[r] {
						bit = 1
					}
					arena[pl.OutSlot+int32(r)] = bit
					if float32(bit) != units[int(seg)+r] {
						t.Fatalf("merge=%v trial %d layer %d row %d: plan %d, model %v",
							merge, trial, li, r, bit, units[int(seg)+r])
					}
				}
			}
			// Output ports and feedback sources must still be readable
			// through the slot map after the full pass.
			for _, pm := range model.Outputs {
				for _, u := range pm.Units {
					if float32(arena[p.Slot[u]]) != units[u] {
						t.Fatalf("merge=%v trial %d: output unit %d slot %d stale", merge, trial, u, p.Slot[u])
					}
				}
			}
			for _, fb := range model.Feedback {
				if float32(arena[p.Slot[fb.FromUnit]]) != units[fb.FromUnit] {
					t.Fatalf("merge=%v trial %d: feedback unit %d slot %d stale", merge, trial, fb.FromUnit, p.Slot[fb.FromUnit])
				}
			}
		}
	}
}

// TestLintCatchesCorruption mutates a freshly compiled plan once per
// rule and requires the corresponding diagnostic to fire.
func TestLintCatchesCorruption(t *testing.T) {
	firstThresh := func(p *Plan) int {
		for li := range p.Layers {
			if !p.Layers[li].Linear() {
				return li
			}
		}
		return -1
	}
	cases := []struct {
		name   string
		rule   string
		mutate func(p *Plan) bool
	}{
		{"slot-out-of-bounds", "EX001", func(p *Plan) bool {
			p.Slot[len(p.Slot)-1] = int32(p.ArenaUnits) + 7
			return true
		}},
		{"block-out-of-bounds", "EX001", func(p *Plan) bool {
			p.Layers[len(p.Layers)-1].OutSlot = int32(p.ArenaUnits)
			return true
		}},
		{"threshold-dropped", "EX002", func(p *Plan) bool {
			li := firstThresh(p)
			if li < 0 {
				return false
			}
			p.Layers[li].Thresh = nil
			return true
		}},
		{"bias-dropped", "EX002", func(p *Plan) bool {
			li := firstThresh(p)
			if li < 0 {
				return false
			}
			p.Layers[li].Bias = nil
			return true
		}},
		{"linear-with-threshold", "EX002", func(p *Plan) bool {
			for li := range p.Layers {
				if l := &p.Layers[li]; l.Linear() {
					l.Thresh = make([]int32, l.W.Rows)
					return true
				}
			}
			return false
		}},
		{"threshold-drift", "EX004", func(p *Plan) bool {
			li := firstThresh(p)
			if li < 0 {
				return false
			}
			p.Layers[li].Thresh[0]++
			return true
		}},
		{"groups-dropped", "EX006", func(p *Plan) bool {
			l := &p.Layers[0]
			if l.W.Rows == 0 {
				return false
			}
			l.Groups = nil
			return true
		}},
		{"group-missing-row", "EX006", func(p *Plan) bool {
			for li := range p.Layers {
				for gi := range p.Layers[li].Groups {
					g := &p.Layers[li].Groups[gi]
					if len(g.Rows) > 0 {
						g.Rows = g.Rows[:len(g.Rows)-1]
						return true
					}
				}
			}
			return false
		}},
		{"group-duplicate-row", "EX006", func(p *Plan) bool {
			for li := range p.Layers {
				for gi := range p.Layers[li].Groups {
					g := &p.Layers[li].Groups[gi]
					if len(g.Rows) > 0 {
						g.Rows = append(g.Rows, g.Rows[len(g.Rows)-1])
						return true
					}
				}
			}
			return false
		}},
		{"group-kind-drift", "EX007", func(p *Plan) bool {
			for li := range p.Layers {
				for gi := range p.Layers[li].Groups {
					g := &p.Layers[li].Groups[gi]
					if len(g.Rows) == 0 {
						continue
					}
					g.Kind = (g.Kind + 1) % KernelKind(NumKernelKinds)
					return true
				}
			}
			return false
		}},
		{"mirror-drift", "EX005", func(p *Plan) bool {
			l := &p.Layers[0]
			if len(l.WInt.Val) == 0 {
				return false
			}
			vals := make([]int32, len(l.WInt.Val))
			copy(vals, l.WInt.Val)
			vals[0] += 3
			mi := *l.WInt
			mi.Val = vals
			l.WInt = &mi
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, p := compilePlan(t, 4, false)
			if !tc.mutate(p) {
				t.Fatalf("plan shape does not admit the %s mutation", tc.name)
			}
			ds := p.Lint()
			for _, d := range ds {
				if d.Rule == tc.rule {
					return
				}
			}
			t.Fatalf("mutation not caught by %s; got %d diagnostics: %v", tc.rule, len(ds), ds)
		})
	}
}

func TestArenaAllocator(t *testing.T) {
	a := &arena{}
	b0 := a.alloc(10)
	b1 := a.alloc(5)
	b2 := a.alloc(8)
	if b0 != 0 || b1 != 10 || b2 != 15 || a.top != 23 {
		t.Fatalf("sequential allocs misplaced: %d %d %d top %d", b0, b1, b2, a.top)
	}
	a.release(b1, 5)
	got := a.alloc(4)
	if got != b1 {
		t.Fatalf("first-fit ignored the hole: got %d", got)
	}
	a.release(got, 4) // coalesces with the [14,15) remainder
	a.release(b0, 10) // coalesces into [0,15)
	if got := a.alloc(11); got != 0 {
		t.Fatalf("coalesced hole [0,15) not found: got %d", got)
	}
	if got := a.alloc(4); got != 11 {
		t.Fatalf("hole remainder misplaced: got %d", got)
	}
	if a.top != 23 {
		t.Fatalf("top moved to %d", a.top)
	}
}

// deadInteriorModel hand-builds a two-layer network whose first layer
// has zero live activations: unit 3 drives no later layer, output or
// latch, so under arena reuse the whole layer-0 block dies the moment
// the layer finishes and layer 1 can recycle it.
func deadInteriorModel() *nn.Model {
	// Units: 0 const, 1..2 PIs, 3 layer-0 row (dead), 4 layer-1 row.
	w0 := &tensor.CSR{Rows: 1, Cols: 2,
		RowPtr: []int32{0, 1}, Col: []int32{1}, Val: []float32{1}}
	w1 := &tensor.CSR{Rows: 1, Cols: 3,
		RowPtr: []int32{0, 1}, Col: []int32{2}, Val: []float32{1}}
	net := &nn.Network{
		NumPIs:     2,
		SegStart:   []int32{3, 4},
		TotalUnits: 5,
		Layers: []nn.Layer{
			{W: w0, Bias: []float32{0}, Threshold: true},
			{W: w1, Bias: []float32{0}, Threshold: true},
		},
	}
	return &nn.Model{
		Net:     net,
		Inputs:  []nn.PortMap{{Name: "a", Units: []int32{1}}, {Name: "b", Units: []int32{2}}},
		Outputs: []nn.PortMap{{Name: "y", Units: []int32{4}}},
	}
}

// TestArenaEdgeCases is the arena allocator's corner-case table: each
// entry compiles a model under specific options, asserts the expected
// arena shape, and — for the negative rows — applies a mutation that
// the plan lint must still catch in that mode.
func TestArenaEdgeCases(t *testing.T) {
	crc := func(t *testing.T) *nn.Model { return buildModel(t, 3, false) }
	dead := func(t *testing.T) *nn.Model { return deadInteriorModel() }
	cases := []struct {
		name   string
		model  func(t *testing.T) *nn.Model
		opts   Options
		check  func(t *testing.T, m *nn.Model, p *Plan)
		mutate func(p *Plan) bool // negative rows: corruption to detect
		rule   string             // ...and the rule that must fire
	}{
		{name: "reuse-shrinks-deep-net", model: crc,
			check: func(t *testing.T, m *nn.Model, p *Plan) {
				if p.ArenaUnits >= m.Net.TotalUnits {
					t.Fatalf("arena %d did not shrink below flat layout %d",
						p.ArenaUnits, m.Net.TotalUnits)
				}
			}},
		{name: "disable-reuse-flat", model: crc,
			opts: Options{DisableArenaReuse: true},
			check: func(t *testing.T, m *nn.Model, p *Plan) {
				if p.ArenaUnits != m.Net.TotalUnits {
					t.Fatalf("reuse-free arena is %d units, flat layout is %d",
						p.ArenaUnits, m.Net.TotalUnits)
				}
				seen := make(map[int32]int32, len(p.Slot))
				for u, s := range p.Slot {
					if prev, dup := seen[s]; dup {
						t.Fatalf("units %d and %d share slot %d without reuse", prev, u, s)
					}
					seen[s] = int32(u)
				}
			}},
		{name: "zero-activation-layer-recycled", model: dead,
			check: func(t *testing.T, m *nn.Model, p *Plan) {
				// Layer 0's block is dead on arrival: layer 1 must recycle
				// it, keeping the arena below the flat layout.
				if p.ArenaUnits >= m.Net.TotalUnits {
					t.Fatalf("dead interior row not recycled: arena %d, flat %d",
						p.ArenaUnits, m.Net.TotalUnits)
				}
			}},
		{name: "zero-activation-layer-kept", model: dead,
			opts: Options{DisableArenaReuse: true},
			check: func(t *testing.T, m *nn.Model, p *Plan) {
				if p.ArenaUnits != m.Net.TotalUnits {
					t.Fatalf("reuse-free arena is %d units, flat layout is %d",
						p.ArenaUnits, m.Net.TotalUnits)
				}
			}},
		{name: "zero-activation-arena-truncated", model: dead,
			mutate: func(p *Plan) bool {
				p.ArenaUnits--
				return true
			}, rule: "EX001"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(t)
			p, err := CompileOpts(m, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate == nil {
				if ds := p.Lint(); len(ds) != 0 {
					t.Fatalf("clean compile lints dirty: %v", ds)
				}
				tc.check(t, m, p)
				return
			}
			if !tc.mutate(p) {
				t.Fatalf("plan shape does not admit the %s mutation", tc.name)
			}
			for _, d := range p.Lint() {
				if d.Rule == tc.rule {
					return
				}
			}
			t.Fatalf("mutation not caught by %s", tc.rule)
		})
	}
}
