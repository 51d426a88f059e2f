package partition

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/pool"
)

// rangeGrain is the fewest adjacency entries worth a range of their own:
// below it, waking a helper costs more than it saves.
const rangeGrain = 1 << 13

// phase is the pure phase of a bisection a rangeJob runs.
type phase uint8

const (
	induce  phase = iota // newWorkGraph's rows
	coarsen              // contract's rows
	gains                // refine's initial gains and side weights
)

// rangeJob runs one pure phase of a bisection on the pool. Rows [0, m) — of
// the work graph, the coarse graph, or the graph being refined — are cut
// into contiguous ranges of about equal adjacency, and each range is one
// index of a pool.ForEach.
//
// The two row builds write range j's rows into the shared slab from
// bases[j], the entry bound of the rows before it, so ranges never overlap,
// and join then closes the gaps. Each row is built exactly as a serial loop
// builds it, so the joined slab and xadj are the serial ones byte for byte,
// for every range count. During a build xadj[r] holds the entry bound before
// row r until r's range overwrites it with r's start.
//
// The inputs are read-only while the pool runs, and each range writes only
// its own rows, xadj entries, ends slot, slot array, gains and side-weight
// pair. The range body is a method value built once per run (newWScratch),
// so handing it to the pool allocates nothing; the graph is held by value so
// that the run's coarsening levels stay off the heap.
type rangeJob struct {
	pool          pool.Pool
	ranges, grain int
	phase         phase
	run           func(int) // runRange

	xadj  []int32 // the bound prefix being overwritten (induce, coarsen), or g.xadj (gains)
	cuts  []int32 // range j is rows [cuts[j], cuts[j+1])
	bases []int32 // where range j starts writing
	ends  []int32 // where range j stopped writing
	out   []wedge

	// induce: the subset of und, and its global→local index.
	und    *graph.Graph
	subset []graph.VertexID
	local  []int32
	// coarsen: the fine graph g, grouped by coarse vertex; range j's slot
	// array is the j-th run of coarse-vertex count in slots.
	g                     wgraph
	match, start, members []int32
	slots                 []int32
	// gains: the bisection of g, each vertex's gain, and each range's side
	// weights (weights[2j], weights[2j+1]).
	side    []uint8
	gain    []int64
	weights []int64
}

// setRanges sizes the job for at most k ranges of at least grain entries.
// Its small arrays live as long as the run, outside the arena, so that they
// do not move the arena's chunk boundaries.
func (j *rangeJob) setRanges(k, grain int) {
	buf := make([]int32, 3*k+1)
	j.ranges, j.grain = k, grain
	j.cuts, j.bases, j.ends = buf[:k+1], buf[k+1:2*k+1], buf[2*k+1:]
	j.weights = make([]int64, 2*k)
}

// split cuts rows [0, m) into at most ranges ranges of at least grain
// entries each (one range if there are fewer), reading the entry prefix in
// xadj[0..m], and returns how many.
func (j *rangeJob) split(m int) int {
	total := j.xadj[m]
	k := max(1, min(j.ranges, int(total)/j.grain))
	j.cuts[0], j.cuts[k] = 0, int32(m)
	for r := 1; r < k; r++ {
		target := int32(int64(total) * int64(r) / int64(k))
		at, _ := slices.BinarySearch(j.xadj[j.cuts[r-1]:m+1], target)
		j.cuts[r] = j.cuts[r-1] + int32(at)
	}
	for r := 0; r < k; r++ {
		j.bases[r] = j.xadj[j.cuts[r]]
	}
	return k
}

// join moves each range's rows down to where the previous range's ended,
// shifting their xadj entries with them, sets xadj[m] and returns the entry
// count.
func (j *rangeJob) join(k int) int32 {
	end := j.ends[0]
	for r := 1; r < k; r++ {
		base, lo, hi := j.bases[r], j.cuts[r], j.cuts[r+1]
		if delta := base - end; delta > 0 {
			copy(j.out[end:], j.out[base:j.ends[r]])
			for v := lo; v < hi; v++ {
				j.xadj[v] -= delta
			}
		}
		end += j.ends[r] - base
	}
	j.xadj[j.cuts[k]] = end
	return end
}

// runRange runs the job's phase on range r.
func (j *rangeJob) runRange(r int) {
	switch j.phase {
	case induce:
		j.induceRange(r)
	case coarsen:
		j.contractRange(r)
	default:
		j.gainsRange(r)
	}
}

// induceRange builds newWorkGraph's rows of range r.
func (j *rangeJob) induceRange(r int) {
	local := j.local
	edges := j.out[:j.bases[r]]
	for i := j.cuts[r]; i < j.cuts[r+1]; i++ {
		j.xadj[i] = int32(len(edges))
		for _, nb := range j.und.Neighbors(j.subset[i]) {
			if l := local[nb]; l >= 0 {
				edges = append(edges, wedge{to: l, w: 1})
			}
		}
	}
	j.ends[r] = int32(len(edges))
}

// contractRange builds contract's rows of range r. slot[cn] remembers where
// neighbor cn sits in the row being built; the slab only grows, so a slot
// below the current row's start is stale and slot is cleared once per call,
// not between rows.
func (j *rangeJob) contractRange(r int) {
	n := len(j.start) - 1
	match, start, members, slot := j.match, j.start, j.members, j.slots[r*n:(r+1)*n]
	for i := range slot {
		slot[i] = -1
	}
	rows := j.out[:j.bases[r]]
	for cv := j.cuts[r]; cv < j.cuts[r+1]; cv++ {
		lo := int32(len(rows))
		j.xadj[cv] = lo
		for _, v := range members[start[cv]:start[cv+1]] {
			for _, e := range j.g.adjOf(int(v)) {
				cn := match[e.to]
				if cn == cv {
					continue
				}
				if s := slot[cn]; s >= lo {
					rows[s].w += e.w
				} else {
					slot[cn] = int32(len(rows))
					rows = append(rows, wedge{to: cn, w: e.w})
				}
			}
		}
	}
	j.ends[r] = int32(len(rows))
}

// initGains fills gain[v] — the cut reduction if v changed sides — for every
// vertex of w and returns the weight of each side, on the pool. Integer
// sums, so the result does not depend on the ranges.
func (sc *wscratch) initGains(w *wgraph, side []uint8, gain []int64) [2]int64 {
	j := &sc.job
	j.phase, j.xadj, j.g, j.side, j.gain = gains, w.xadj, *w, side, gain
	k := j.split(w.n())
	j.pool.ForEach(k, j.run)
	var sideWeight [2]int64
	for r := 0; r < k; r++ {
		sideWeight[0] += j.weights[2*r]
		sideWeight[1] += j.weights[2*r+1]
	}
	return sideWeight
}

// gainsRange is initGains on range r.
func (j *rangeJob) gainsRange(r int) {
	w, side, gain := &j.g, j.side, j.gain
	var sideWeight [2]int64
	for v := int(j.cuts[r]); v < int(j.cuts[r+1]); v++ {
		sv := side[v]
		sideWeight[sv] += w.vwgt[v]
		var g int64
		for _, e := range w.adjOf(v) {
			// Widen once, negate, then add: two widening branches ran
			// BenchmarkRefine 1.7x slower.
			d := int64(e.w)
			if side[e.to] == sv {
				d = -d
			}
			g += d
		}
		gain[v] = g
	}
	j.weights[2*r], j.weights[2*r+1] = sideWeight[0], sideWeight[1]
}
