package engine

import (
	"sync/atomic"
	"testing"
)

func TestPoolCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		p := NewPool(workers)
		const n = 1000
		var hits [n]atomic.Int32
		p.ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestPoolIndexDisjointWrites(t *testing.T) {
	// The canonical usage: each index fills its own slot; the merged
	// result must be identical for every worker count.
	compute := func(workers int) []int {
		out := make([]int, 257)
		NewPool(workers).ForEach(len(out), func(i int) { out[i] = i * i })
		return out
	}
	ref := compute(1)
	for _, workers := range []int{2, 8} {
		got := compute(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestPoolZeroAndNil(t *testing.T) {
	if w := NewPool(0).Workers(); w < 1 {
		t.Fatalf("NewPool(0).Workers() = %d, want >= 1 (GOMAXPROCS)", w)
	}
	var nilPool *Pool
	if w := nilPool.Workers(); w != 1 {
		t.Fatalf("nil pool workers = %d, want 1", w)
	}
	ran := 0
	nilPool.ForEach(5, func(i int) { ran++ })
	if ran != 5 {
		t.Fatalf("nil pool ran %d of 5", ran)
	}
}

func TestPoolEmptyAndSmall(t *testing.T) {
	p := NewPool(8)
	p.ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	var count atomic.Int32
	p.ForEach(1, func(int) { count.Add(1) })
	if count.Load() != 1 {
		t.Fatalf("n=1 ran %d times", count.Load())
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			NewPool(workers).ForEach(100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: ForEach returned instead of panicking", workers)
		}()
	}
}

// TestRunnerMetricsIdenticalAcrossWorkers: the worker pool executes compute
// bodies, but the event loop alone owns virtual time — so a job's metrics
// are identical whatever the pool size.
func TestRunnerMetricsIdenticalAcrossWorkers(t *testing.T) {
	mk := func(workers int) Metrics {
		r, job := failureFixture(t)
		r2 := New(Config{
			Topo:              r.cfg.Topo,
			Replicas:          r.cfg.Replicas,
			Faults:            r.cfg.Faults,
			HeartbeatInterval: r.cfg.HeartbeatInterval,
			Workers:           workers,
		})
		m, err := r2.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := mk(1)
	for _, workers := range []int{2, 8} {
		if got := mk(workers); got != ref {
			t.Fatalf("workers=%d: metrics %+v, want %+v", workers, got, ref)
		}
	}
}
