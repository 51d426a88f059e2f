package partition

import (
	"math/rand"
	"slices"
)

// refContract is the sort-based contraction the kernel shipped with before the
// rewrite, kept as the differential reference without its 2^32 overflow
// fallback, which 32-bit weights cannot reach (see wedge). It builds the
// coarse graph given a matching: match[v] is the coarse vertex index of v.
// Parallel edges between the same coarse pair merge with summed weight;
// edges internal to a coarse vertex disappear. Accumulation uses a stamp
// array (slot[cn] holds cn's position in the current coarse vertex's output
// range, cleared by walking back over that range) — no per-coarse-vertex map
// to clear, no per-edge hashing.
func (w *wgraph) refContract(match []int32, coarseN int) *wgraph {
	c := &wgraph{
		vwgt: make([]int64, coarseN),
		xadj: make([]int32, coarseN+1),
	}
	for v := range w.vwgt {
		c.vwgt[match[v]] += w.vwgt[v]
	}
	// Group fine vertices by coarse vertex (counting sort: stable in fine
	// vertex order, like the append loop it replaces).
	counts := make([]int32, coarseN+1)
	for v := range w.vwgt {
		counts[match[v]+1]++
	}
	for i := 1; i <= int(coarseN); i++ {
		counts[i] += counts[i-1]
	}
	members := make([]int32, len(w.vwgt))
	cursor := make([]int32, coarseN)
	copy(cursor, counts[:coarseN])
	for v := range w.vwgt {
		cv := match[v]
		members[cursor[cv]] = int32(v)
		cursor[cv]++
	}
	// slot[cn] = index into the accumulation buffer where coarse neighbor cn
	// accumulates for the coarse vertex being built, or -1.
	slot := make([]int32, coarseN)
	for i := range slot {
		slot[i] = -1
	}
	// Accumulate each coarse vertex's neighbors as packed (to<<32 | w)
	// words: sorting []uint64 with slices.Sort is several times faster than
	// comparison-function sorting of structs, and because neighbor IDs are
	// unique within a range, ordering the packed words orders the range by
	// neighbor. A graph's total weight is below 2^31, so no sum carries into
	// the neighbor bits.
	var packed []uint64
	var touched []int32
	c.edges = make([]wedge, 0, len(w.edges))
	for cv := int32(0); cv < int32(coarseN); cv++ {
		packed = packed[:0]
		touched = touched[:0]
		for _, v := range members[counts[cv]:counts[cv+1]] {
			for _, e := range w.adjOf(int(v)) {
				cn := match[e.to]
				if cn == cv {
					continue
				}
				if s := slot[cn]; s >= 0 {
					packed[s] += uint64(e.w)
				} else {
					slot[cn] = int32(len(packed))
					touched = append(touched, cn)
					packed = append(packed, uint64(cn)<<32|uint64(e.w))
				}
			}
		}
		for _, cn := range touched {
			slot[cn] = -1
		}
		slices.Sort(packed)
		for _, pk := range packed {
			c.edges = append(c.edges, wedge{to: int32(pk >> 32), w: int32(pk & 0xFFFFFFFF)})
		}
		c.xadj[cv+1] = int32(len(c.edges))
	}
	return c
}

// refGGGP is the scan-all-vertices GGGP the kernel shipped with before the
// frontier heap, kept verbatim as the differential reference: it performs Greedy Graph Growing Partitioning [15] on the coarsest
// graph: from a random seed, grow side 0 by repeatedly absorbing the
// frontier vertex with maximum gain until it holds half the vertex weight.
// Several trials are run and the best cut wins.
func refGGGP(w *wgraph, rng *rand.Rand) []uint8 {
	n := w.n()
	total := w.totalVertexWeight()
	half := total / 2

	var bestSide []uint8
	bestCut := int64(-1)
	for trial := 0; trial < gggpTrials; trial++ {
		side := make([]uint8, n)
		for i := range side {
			side[i] = 1
		}
		inZero := make([]bool, n)
		// gain[v] = (weight of edges from v into side 0) - (weight into side 1);
		// moving a high-gain frontier vertex into side 0 shrinks the cut.
		gain := make([]int64, n)
		for v := range gain {
			for _, e := range w.adjOf(v) {
				gain[v] -= int64(e.w)
			}
		}
		seed := rng.Intn(n)
		var grown int64
		add := func(v int) {
			inZero[v] = true
			side[v] = 0
			grown += w.vwgt[v]
			for _, e := range w.adjOf(v) {
				gain[e.to] += 2 * int64(e.w)
			}
		}
		add(seed)
		for grown < half {
			// Pick the frontier vertex (neighbor of side 0) with max gain;
			// fall back to any unabsorbed vertex if the frontier is empty
			// (disconnected graph).
			best := -1
			var bestGain int64
			for v := 0; v < n; v++ {
				if inZero[v] {
					continue
				}
				onFrontier := false
				for _, e := range w.adjOf(v) {
					if inZero[e.to] {
						onFrontier = true
						break
					}
				}
				if !onFrontier {
					continue
				}
				if best == -1 || gain[v] > bestGain {
					best, bestGain = v, gain[v]
				}
			}
			if best == -1 {
				for v := 0; v < n; v++ {
					if !inZero[v] {
						best = v
						break
					}
				}
				if best == -1 {
					break
				}
			}
			add(best)
		}
		cut := cutWeight(w, side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			bestSide = side
		}
	}
	return bestSide
}

// refRefine is the recompute-every-gain refinement the kernel shipped with
// before gains became incremental, kept verbatim as the differential
// reference: it runs Fiduccia–Mattheyses-style boundary refinement: passes of
// single-vertex moves in best-gain order with a balance constraint,
// accepting a pass only if it improved the cut ("local refinement can
// significantly improve the partition quality", Appendix A.2).
func refRefine(w *wgraph, side []uint8) {
	n := w.n()
	total := w.totalVertexWeight()
	maxSide := total/2 + int64(float64(total)*balanceTolerance) + 1

	sideWeight := [2]int64{}
	for v := 0; v < n; v++ {
		sideWeight[side[v]] += w.vwgt[v]
	}
	gain := func(v int) int64 {
		// Cut reduction if v moves to the other side.
		var g int64
		for _, e := range w.adjOf(v) {
			if side[e.to] != side[v] {
				g += int64(e.w)
			} else {
				g -= int64(e.w)
			}
		}
		return g
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		// One sweep: move any vertex with positive gain whose move keeps
		// balance. Greedy single-sweep FM is sufficient at our scales.
		for v := 0; v < n; v++ {
			g := gain(v)
			if g <= 0 {
				continue
			}
			from := side[v]
			to := 1 - from
			if sideWeight[to]+w.vwgt[v] > maxSide {
				continue
			}
			side[v] = to
			sideWeight[from] -= w.vwgt[v]
			sideWeight[to] += w.vwgt[v]
			improved = true
		}
		if !improved {
			break
		}
	}
}
