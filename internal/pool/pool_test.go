package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// counter is a ForEach body built once: its method value is what a caller
// that allocates nothing per call passes every time.
type counter struct{ hits []atomic.Int32 }

func (c *counter) hit(i int) { c.hits[i].Add(1) }

func (c *counter) check(t *testing.T, what string) {
	t.Helper()
	for i := range c.hits {
		if got := c.hits[i].Swap(0); got != 1 {
			t.Fatalf("%s: index %d executed %d times", what, i, got)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		c := &counter{hits: make([]atomic.Int32, 1000)}
		for _, n := range []int{0, 1, 2, 7, 1000} {
			New(workers).ForEach(n, c.hit)
			for i := range c.hits[:n] {
				if got := c.hits[i].Swap(0); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestRanges(t *testing.T) {
	var nilPool *Pool
	if r := nilPool.Ranges(); r != 1 {
		t.Errorf("nil pool: %d ranges, want 1", r)
	}
	if r := New(1).Ranges(); r != 1 {
		t.Errorf("serial pool: %d ranges, want 1", r)
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if r := New(8).Ranges(); r != 4*min(8, procs) {
			t.Errorf("8 workers on %d threads: %d ranges, want %d", procs, r, 4*min(8, procs))
		}
	}
}

// TestForEachAllocatesNothing: once the crew has started, a call that is
// handed the same fn allocates nothing, however many helpers it wakes.
func TestForEachAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronisation")
	}
	c := &counter{hits: make([]atomic.Int32, 64)}
	fn := c.hit
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		if allocs := testing.AllocsPerRun(100, func() { p.ForEach(len(c.hits), fn) }); allocs != 0 {
			t.Errorf("workers=%d: ForEach made %.1f allocations per call, want 0", workers, allocs)
		}
	}
}

// TestHelpersStartOnce: pools share the one crew, so building pool after
// pool leaves no more goroutines behind than GOMAXPROCS-1 helpers.
func TestHelpersStartOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	c := &counter{hits: make([]atomic.Int32, 16)}
	for i := 0; i < 1000; i++ {
		New(0).ForEach(len(c.hits), c.hit)
	}
	if got, limit := runtime.NumGoroutine(), base+runtime.GOMAXPROCS(0); got > limit {
		t.Fatalf("%d goroutines after 1000 pools, want at most %d", got, limit)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	c := &counter{hits: make([]atomic.Int32, 100)}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			New(workers).ForEach(100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: ForEach returned instead of panicking", workers)
		}()
		// The crew is released and every helper still answers.
		New(workers).ForEach(len(c.hits), c.hit)
		c.check(t, "after a panic")
	}
}

// TestNestedAndConcurrentCalls: a call from inside fn, and calls on one pool
// from two goroutines at once, run every index exactly once and return — the
// one that does not hold the crew runs as a plain loop.
func TestNestedAndConcurrentCalls(t *testing.T) {
	p := New(4)
	outer := &counter{hits: make([]atomic.Int32, 8)}
	inner := make([]counter, len(outer.hits))
	for i := range inner {
		inner[i].hits = make([]atomic.Int32, 50)
	}
	p.ForEach(len(outer.hits), func(i int) {
		outer.hit(i)
		p.ForEach(len(inner[i].hits), inner[i].hit)
	})
	outer.check(t, "outer")
	for i := range inner {
		inner[i].check(t, "nested")
	}

	var wg sync.WaitGroup
	both := []*counter{{hits: make([]atomic.Int32, 500)}, {hits: make([]atomic.Int32, 500)}}
	for _, c := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				p.ForEach(len(c.hits), c.hit)
			}
		}()
	}
	wg.Wait()
	for _, c := range both {
		for i := range c.hits {
			if got := c.hits[i].Load(); got != 20 {
				t.Fatalf("concurrent: index %d executed %d times, want 20", i, got)
			}
		}
	}
}

// BenchmarkForEach is the pool's own cost: one call over 64 trivial indices,
// serial and on GOMAXPROCS workers.
func BenchmarkForEach(b *testing.B) {
	c := &counter{hits: make([]atomic.Int32, 64)}
	fn := c.hit
	for _, bc := range []struct {
		name    string
		workers int
	}{{"w1", 1}, {"wN", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			p := New(bc.workers)
			b.ReportAllocs()
			for b.Loop() {
				p.ForEach(len(c.hits), fn)
			}
		})
	}
}
