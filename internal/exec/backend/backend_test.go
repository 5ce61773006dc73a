package backend

import (
	"math/rand"
	"testing"

	"c2nn/internal/exec/plan"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/synth"
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

func compilePlan(t *testing.T, k int, merge bool) (*nn.Model, *plan.Plan) {
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
	p, err := plan.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	return model, p
}

// TestLaneAccessors checks Set/Get/SetUniform/Copy/Zero roundtrips on
// every substrate, including partial last words for the packed one.
func TestLaneAccessors(t *testing.T) {
	_, p := compilePlan(t, 4, false)
	for _, kind := range Kinds() {
		for _, batch := range []int{1, 5, 64, 67} {
			be, err := New(kind, p, batch, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if be.Kind() != kind || be.Batch() != batch {
				t.Fatalf("%v/%d: identity mismatch: %v/%d", kind, batch, be.Kind(), be.Batch())
			}
			rng := rand.New(rand.NewSource(int64(batch)))
			want := make(map[[2]int]bool)
			for trial := 0; trial < 200; trial++ {
				slot := int32(rng.Intn(p.ArenaUnits))
				lane := rng.Intn(batch)
				v := rng.Intn(2) == 1
				be.Set(slot, lane, v)
				want[[2]int{int(slot), lane}] = v
			}
			for k, v := range want {
				if got := be.Get(int32(k[0]), k[1]); got != v {
					t.Fatalf("%v/%d: slot %d lane %d: got %v want %v", kind, batch, k[0], k[1], got, v)
				}
			}
			be.SetUniform(3, true)
			be.Copy(4, 3)
			for lane := 0; lane < batch; lane++ {
				if !be.Get(3, lane) || !be.Get(4, lane) {
					t.Fatalf("%v/%d: uniform/copy lost lane %d", kind, batch, lane)
				}
			}
			be.Zero()
			for lane := 0; lane < batch; lane++ {
				if be.Get(3, lane) || be.Get(4, lane) {
					t.Fatalf("%v/%d: zero left lane %d set", kind, batch, lane)
				}
			}
			if be.MemoryBytes() <= 0 {
				t.Fatalf("%v/%d: non-positive arena size", kind, batch)
			}
		}
	}
}

// TestForwardAgreesAcrossBackends drives the same random PI stimuli
// through all three substrates and requires every arena row to agree
// bit-for-bit after a forward pass, for batches exercising partial and
// multiple packed words.
func TestForwardAgreesAcrossBackends(t *testing.T) {
	for _, merge := range []bool{true, false} {
		model, p := compilePlan(t, 4, merge)
		net := model.Net
		for _, batch := range []int{5, 64, 67, 130} {
			backends := make([]*Backend, 0, 3)
			for _, kind := range Kinds() {
				be, err := New(kind, p, batch, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				backends = append(backends, be)
			}
			rng := rand.New(rand.NewSource(int64(batch) * 31))
			for cyc := 0; cyc < 4; cyc++ {
				for u := 0; u <= net.NumPIs; u++ {
					for lane := 0; lane < batch; lane++ {
						v := u == 0 || rng.Intn(2) == 1
						for _, be := range backends {
							be.Set(p.Slot[u], lane, v)
						}
					}
				}
				for _, be := range backends {
					be.Forward()
				}
				ref := backends[0]
				for _, be := range backends[1:] {
					for s := 0; s < p.ArenaUnits; s++ {
						for lane := 0; lane < batch; lane++ {
							if ref.Get(int32(s), lane) != be.Get(int32(s), lane) {
								t.Fatalf("merge=%v batch=%d cyc=%d: %v and %v disagree at slot %d lane %d",
									merge, batch, cyc, ref.Kind(), be.Kind(), s, lane)
							}
						}
					}
				}
			}
		}
	}
}

// TestPoolPartitions checks that the pool covers row ranges exactly
// once, inline and parallel.
func TestPoolPartitions(t *testing.T) {
	for _, workers := range []int{1, 3} {
		pool := NewPool(workers)
		if pool.Workers() != workers {
			t.Fatalf("pool width %d, want %d", pool.Workers(), workers)
		}
		for _, n := range []int{0, 1, 5, 97} {
			hits := make([]int32, n)
			var mu chan struct{} = make(chan struct{}, 1)
			mu <- struct{}{}
			pool.Run(n, func(lo, hi int) {
				<-mu
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu <- struct{}{}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: row %d covered %d times", workers, n, i, h)
				}
			}
		}
		pool.Close()
		pool.Close() // idempotent
	}
	var nilPool *Pool
	ran := false
	nilPool.Run(3, func(lo, hi int) { ran = lo == 0 && hi == 3 })
	if !ran {
		t.Fatal("nil pool did not run inline")
	}
}
