// Package pool runs index-disjoint work on real OS threads: the semantic
// compute of simulated tasks (Transfer fan-out, Combine folds, Map/Reduce
// bodies) and the pure phases of the partitioner (contraction, work-graph
// induction). The discrete-event loop remains the single source of truth for
// virtual-time ordering, failures and the clock; the pool only makes the wall
// clock see many cores.
//
// The determinism contract: a Pool only ever executes index-disjoint work
// (index i writes slot i of preallocated per-task buffers, or a range of
// rows it alone owns), and callers consume per-index outputs in index order
// afterwards — in a serial merge, or in a second index-disjoint phase whose
// index j reads every output but writes only what j owns. Results are
// therefore bit-identical for every worker count, including 1.
//
// It is a leaf package, so that every layer that has pure work — the engine
// and the partitioner beneath it — can share one crew of threads.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a worker count over the process's one crew of helper goroutines.
// It holds no goroutines of its own, so building one per runner or per
// partitioning run costs a small allocation and nothing else.
type Pool struct {
	workers int
}

// New creates a pool with the given worker count. A count <= 0 selects
// GOMAXPROCS, the default sizing.
func New(workers int) *Pool {
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

// Ranges is how many ranges a caller that cuts its work into contiguous
// ranges, one per index, should cut it into at most: four for every thread
// the pool can run on, so that a helper that wakes late or shares its core
// takes fewer of them and the caller does not wait long for the last one;
// one when the pool is serial.
func (p *Pool) Ranges() int {
	if t := min(p.Workers(), runtime.GOMAXPROCS(0)); t > 1 {
		return 4 * t
	}
	return 1
}

// ForEach runs fn(i) for every i in [0, n), spread over the calling
// goroutine and up to Workers()-1 of the crew's helpers. Indices are claimed
// atomically, so callers must not rely on which goroutine runs which index —
// only on the index-disjoint-writes discipline above. With one worker (or a
// nil pool), or while another call holds the crew — a nested call from fn, or
// a call on another goroutine — it is a plain loop on the calling goroutine.
// A panic raised by fn is re-raised on the caller, as a serial loop would;
// fn must not end its goroutine (runtime.Goexit, t.FailNow), since a helper
// it ends is never replaced.
//
// In steady state a call allocates nothing: fn reaches the parked helpers
// through the crew's fields, not through a goroutine or closure per call. A
// caller that wants no allocation at all passes the same fn every time (a
// method value built once, say), since building a closure that escapes
// allocates at the call site.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if w := min(p.Workers(), n); w > 1 && the.busy.CompareAndSwap(false, true) {
		startCrew.Do(startHelpers)
		if helpers := min(w-1, len(the.wake)); helpers > 0 {
			the.run(helpers, n, fn)
			return
		}
		the.busy.Store(false)
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// crew is the process's helper goroutines. They start on the first call that
// can use them, GOMAXPROCS-1 of them as it is then, and stay parked on their wake
// channels between calls for the life of the process: every Pool shares them,
// and at most one call at a time (the one that set busy) drives them.
type crew struct {
	busy atomic.Bool
	wake []chan struct{} // one per helper

	// The current call, written by its caller before it wakes any helper and
	// read by the helpers only between their wake and done.Done.
	n        int
	fn       func(int)
	next     atomic.Int64
	done     sync.WaitGroup
	panicMu  sync.Mutex
	panicVal any
}

var (
	the       crew
	startCrew sync.Once
)

func startHelpers() {
	the.wake = make([]chan struct{}, runtime.GOMAXPROCS(0)-1)
	for i := range the.wake {
		// One slot: a caller never waits on a helper that has counted itself
		// done for the previous call but not yet parked again.
		the.wake[i] = make(chan struct{}, 1)
		go the.help(the.wake[i])
	}
}

// help is a helper's life: park, claim indices of the call that woke it,
// report done, park again.
func (c *crew) help(wake <-chan struct{}) {
	for range wake {
		c.claim()
		c.done.Done()
	}
}

// run drives one call on the caller and the first helpers of the crew, which
// the caller holds (busy), and releases the crew once every helper is done.
func (c *crew) run(helpers, n int, fn func(int)) {
	c.n, c.fn = n, fn
	c.next.Store(0)
	c.done.Add(helpers)
	for _, wake := range c.wake[:helpers] {
		wake <- struct{}{}
	}
	c.claim()
	c.done.Wait()
	r := c.panicVal
	c.fn, c.panicVal = nil, nil
	c.busy.Store(false)
	if r != nil {
		// Unreachable unless fn panics: this re-raises fn's panic on the caller's goroutine.
		panic(r)
	}
}

// claim runs fn on claimed indices until none is left. A panic stops this
// goroutine's claiming and is kept (the first one) for the caller to re-raise.
func (c *crew) claim() {
	defer func() {
		if r := recover(); r != nil {
			c.panicMu.Lock()
			if c.panicVal == nil {
				c.panicVal = r
			}
			c.panicMu.Unlock()
		}
	}()
	for {
		i := int(c.next.Add(1)) - 1
		if i >= c.n {
			return
		}
		c.fn(i)
	}
}
