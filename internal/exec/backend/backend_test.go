package backend

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"c2nn/internal/exec/plan"
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

// costLayer builds a layer whose row r has nnz[r] nonzeros — all the
// pool's cut rule reads of it.
func costLayer(nnz []int) (*plan.Layer, []int32) {
	ptr := make([]int32, len(nnz)+1)
	rows := make([]int32, len(nnz))
	for r, k := range nnz {
		ptr[r+1] = ptr[r] + int32(k)
		rows[r] = int32(r)
	}
	return &plan.Layer{WInt: &tensor.Int32CSR{Rows: len(nnz), RowPtr: ptr}}, rows
}

// TestPoolPartitions checks that the pool covers every dispatched row
// exactly once under the weighted cuts — one row heavier than all the
// others, rows that cost only their +1, fewer than two rows per worker,
// and a strided subset as the activity path dispatches — at widths 1,
// 2 and 3, and that a closed or nil pool runs inline.
func TestPoolPartitions(t *testing.T) {
	heavy := make([]int, 40)
	for r := range heavy {
		heavy[r] = 1
	}
	heavy[17] = 1000
	rng := rand.New(rand.NewSource(5))
	mixed := make([]int, 200)
	for r := range mixed {
		mixed[r] = rng.Intn(60)
	}
	shapes := map[string][]int{
		"heavy": heavy, "unit": make([]int, 97), "mixed": mixed,
		"one": {3}, "small": {0, 9, 2, 5}, "empty": nil,
	}
	for _, workers := range []int{1, 2, 3} {
		pool := NewPool(workers)
		if pool.Workers() != workers {
			t.Fatalf("pool width %d, want %d", pool.Workers(), workers)
		}
		for name, nnz := range shapes {
			l, all := costLayer(nnz)
			var odd []int32
			for _, r := range all {
				if r%2 == 1 {
					odd = append(odd, r)
				}
			}
			for _, rows := range [][]int32{all, odd} {
				hits := make([]atomic.Int32, len(nnz))
				pool.Run(l, rows, func(lo, hi int) {
					for _, r := range rows[lo:hi] {
						hits[r].Add(1)
					}
				})
				want := make([]int32, len(nnz))
				for _, r := range rows {
					want[r] = 1
				}
				for r := range hits {
					if h := hits[r].Load(); h != want[r] {
						t.Fatalf("workers=%d %s (%d of %d rows): row %d covered %d times, want %d",
							workers, name, len(rows), len(nnz), r, h, want[r])
					}
				}
			}
		}
		pool.Close()
		pool.Close() // idempotent
		l, rows := costLayer(mixed)
		var ranges [][2]int
		pool.Run(l, rows, func(lo, hi int) { ranges = append(ranges, [2]int{lo, hi}) })
		if len(ranges) != 1 || ranges[0] != [2]int{0, len(rows)} {
			t.Fatalf("workers=%d: a closed pool ran %v, want one inline range", workers, ranges)
		}
	}
	var nilPool *Pool
	l, rows := costLayer([]int{1, 2, 3})
	ran := false
	nilPool.Run(l, rows, func(lo, hi int) { ran = lo == 0 && hi == 3 })
	if !ran {
		t.Fatal("nil pool did not run inline")
	}
}

// waitGoroutines fails unless the goroutine count falls back to n
// within a second.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the pool", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolOversubscribed drives pools wider than GOMAXPROCS through
// 10 000 small dispatches each within a deadline. The chunks are
// uneven and yield mid-chunk, so one worker is often still running
// when another finishes; every chunk of a dispatch must have finished
// when Run returns (the layer barrier).
func TestPoolOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	l, rows := costLayer([]int{40, 1, 1, 1, 1, 1, 9, 9, 30, 2, 2, 2, 2, 2, 2, 20})
	for _, c := range []struct{ procs, width int }{{1, 4}, {2, 3}} {
		runtime.GOMAXPROCS(c.procs)
		before := runtime.NumGoroutine()
		pool := NewPool(c.width)
		if started := runtime.NumGoroutine() - before; started != c.width {
			t.Fatalf("a %d-wide pool started %d goroutines, want %d", c.width, started, c.width)
		}
		var covered atomic.Int64
		fn := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					runtime.Gosched()
				}
				covered.Add(1)
			}
		}
		const dispatches = 10000
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < dispatches; i++ {
			covered.Store(0)
			pool.Run(l, rows, fn)
			if got := covered.Load(); got != int64(len(rows)) {
				t.Fatalf("GOMAXPROCS %d, width %d, dispatch %d: Run returned after %d of %d rows",
					c.procs, c.width, i, got, len(rows))
			}
			if i%1000 == 0 && time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS %d, width %d: only %d of %d dispatches within the deadline",
					c.procs, c.width, i, dispatches)
			}
		}
		pool.Close()
		waitGoroutines(t, before)
	}
}

// TestPoolCloseStopsWorkers closes a pool straight after a dispatch,
// while its workers may still be returning to their channel, and an
// idle one whose workers are blocked on it: both return promptly and
// leave no goroutine behind.
func TestPoolCloseStopsWorkers(t *testing.T) {
	l, rows := costLayer(make([]int, 64))
	for _, idle := range []bool{false, true} {
		before := runtime.NumGoroutine()
		pool := NewPool(3)
		pool.Run(l, rows, func(lo, hi int) {})
		if idle {
			time.Sleep(10 * time.Millisecond)
		}
		start := time.Now()
		pool.Close()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Close (idle=%v) took %v", idle, d)
		}
		waitGoroutines(t, before)
	}
}
