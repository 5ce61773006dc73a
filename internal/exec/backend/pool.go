package backend

import (
	"sync"

	"c2nn/internal/exec/plan"
)

// Pool is a persistent worker pool for row-partitioned layer execution
// (the paper's structural parallelism). Workers are long-lived
// goroutines fed over a channel, replacing the per-layer goroutine
// spawning of the old engine; Run cuts each dispatch into one chunk per
// worker of near-equal cost (plan.Layer.CutRows) and blocks until every
// chunk completes, which preserves the layer barrier.
type Pool struct {
	workers int
	// cuts and fn describe the dispatch in flight. Run writes them
	// before handing out a chunk and rewrites them only after wg has
	// drained, so a worker reads them without a lock.
	cuts []int
	fn   func(lo, hi int)
	// chunks carries the index of each chunk to a worker; nil once the
	// pool is closed.
	chunks chan int
	// wg counts the chunks of the dispatch in flight.
	wg sync.WaitGroup
}

// NewPool starts a pool of the given width. Widths below 2 need no
// goroutines: Run executes inline.
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers > 1 {
		p.cuts = make([]int, workers+1)
		chunks := make(chan int, workers)
		p.chunks = chunks
		for i := 0; i < workers; i++ {
			go func() {
				for k := range chunks {
					// A chunk is empty when one row outweighs the rest.
					if lo, hi := p.cuts[k], p.cuts[k+1]; lo < hi {
						p.fn(lo, hi)
					}
					p.wg.Done()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool width (at least 1).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Run applies fn over the rows of layer l, cut by plan.Layer.CutRows
// into one chunk per worker, and waits for all of them; fn receives
// index ranges into rows. Ranges too small to cut, a nil or
// single-worker pool and a closed pool run inline. One dispatch is in
// flight per pool: Run must not be called concurrently on the same
// pool (Backend.cur depends on that too).
func (p *Pool) Run(l *plan.Layer, rows []int32, fn func(lo, hi int)) {
	n := len(rows)
	if n == 0 {
		return
	}
	if p == nil || p.chunks == nil || l.CutRows(rows, p.cuts) == 1 {
		fn(0, n)
		return
	}
	p.fn = fn
	p.wg.Add(p.workers)
	for k := 0; k < p.workers; k++ {
		p.chunks <- k
	}
	p.wg.Wait()
}

// Close stops the workers. Run on a closed pool executes inline; Close
// is idempotent.
func (p *Pool) Close() {
	if p != nil && p.chunks != nil {
		close(p.chunks)
		p.chunks = nil
	}
}
