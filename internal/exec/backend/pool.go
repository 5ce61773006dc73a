package backend

import "sync"

// poolJob is one row-range dispatch to a pool worker.
type poolJob struct {
	lo, hi int
	fn     func(lo, hi int)
}

// Pool is a persistent worker pool for row-partitioned layer execution
// (the paper's structural parallelism). Workers are long-lived
// goroutines fed over a channel, replacing the per-layer goroutine
// spawning of the old engine; Run partitions a row range across them
// and blocks until every chunk completes, which preserves the layer
// barrier.
type Pool struct {
	workers int
	jobs    chan poolJob
	// wg counts the chunks of the one dispatch in flight. A WaitGroup
	// local to Run would escape through the job channel and cost a heap
	// allocation per dispatch.
	wg sync.WaitGroup
}

// NewPool starts a pool of the given width. Widths below 2 need no
// goroutines: Run executes inline.
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers > 1 {
		jobs := make(chan poolJob, workers)
		p.jobs = jobs
		for i := 0; i < workers; i++ {
			go func() {
				for j := range jobs {
					j.fn(j.lo, j.hi)
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

// Run applies fn over [0, n) partitioned into contiguous chunks, one
// per worker, and waits for all of them. Small ranges (or a nil /
// single-worker pool) run inline — the dispatch overhead outweighs any
// parallel gain there. One dispatch is in flight per pool: Run must not
// be called concurrently on the same pool (Backend.cur depends on that
// too).
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.jobs == nil || n < 2*p.workers {
		fn(0, n)
		return
	}
	chunk := (n + p.workers - 1) / p.workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p.wg.Add(1)
		p.jobs <- poolJob{lo, hi, fn}
	}
	p.wg.Wait()
}

// Close stops the workers. The pool must not be used afterwards; Close
// is idempotent.
func (p *Pool) Close() {
	if p != nil && p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}
