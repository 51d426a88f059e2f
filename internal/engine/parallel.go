package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs the *actual Go compute* of simulated tasks — Transfer fan-out,
// Combine folds, Map/Reduce bodies — on real OS threads, while the
// discrete-event loop remains the single source of truth for virtual-time
// ordering, failures and the clock. The simulator models a cluster of many
// machines; the Pool makes the wall clock see many cores too.
//
// The determinism contract: a Pool only ever executes index-disjoint work
// (worker i writes slot i of preallocated per-task buffers), and callers
// consume per-task outputs in task-index order afterwards — in a serial
// merge, or in a second index-disjoint phase whose task j reads every
// output but writes only what j owns. Results are therefore bit-identical
// for every worker count, including 1.
type Pool struct {
	workers int
}

// NewPool creates a pool with the given worker count. A count <= 0 selects
// GOMAXPROCS, the default sizing.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker count. A nil pool is serial (1).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n), spread over the pool's workers.
// Indices are claimed atomically, so callers must not rely on which worker
// runs which index — only on the index-disjoint-writes discipline above.
// With one worker (or a nil pool) it degenerates to a plain loop on the
// calling goroutine. A panic raised by fn is re-raised on the caller, as a
// serial loop would.
func (p *Pool) ForEach(n int, fn func(i int)) {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		// Unreachable unless fn panics: this re-raises fn's panic on the caller's goroutine.
		panic(panicVal)
	}
}
