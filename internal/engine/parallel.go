package engine

import "repro/internal/pool"

// Pool runs the actual Go compute of simulated tasks — Transfer fan-out,
// Combine folds, Map/Reduce bodies — under the determinism contract of
// package pool: index-disjoint work, consumed in index order, so results are
// bit-identical for every worker count.
type Pool = pool.Pool

// NewPool creates a pool with the given worker count. A count <= 0 selects
// GOMAXPROCS, the default sizing.
func NewPool(workers int) *Pool { return pool.New(workers) }
