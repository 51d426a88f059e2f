package analyze

import (
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// The link report aggregates every transfer in the stream (not just the
// critical path) per directed machine pair, then buckets pairs by their
// machine-graph bisection level: the depth of the recursive bisection
// (§4.2) at which the two machines first separate. Level 0 crosses the
// top-level cut — the scarcest bandwidth in the hierarchy — so a glance at
// the level rows shows whether traffic follows the bandwidth hierarchy the
// partitioner optimized for.

// timelineBuckets is the fixed resolution of per-level utilization
// timelines. Fixed (not adaptive) so reports of the same workload are
// comparable and byte-identical across runs.
const timelineBuckets = 16

// LinkStat aggregates one directed machine pair.
type LinkStat struct {
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	Level        int     `json:"level"`
	Transfers    int     `json:"transfers"`
	Bytes        int64   `json:"bytes"`
	BusySeconds  float64 `json:"busy_seconds"`
	StallSeconds float64 `json:"stall_seconds"`
}

// LevelStat aggregates all links at one bisection level.
type LevelStat struct {
	Level       int     `json:"level"`
	Links       int     `json:"links"`
	Transfers   int     `json:"transfers"`
	Bytes       int64   `json:"bytes"`
	BusySeconds float64 `json:"busy_seconds"`
	// Timeline is transfer busy-seconds per fixed time bucket across the
	// makespan: the utilization timeline of this level of the hierarchy.
	Timeline []float64 `json:"timeline"`
}

// LinkReport is the per-link / per-level utilization view.
type LinkReport struct {
	Levels []LevelStat `json:"levels"`
	// Hot lists the busiest links (by busy seconds, then bytes, then pair),
	// at most five.
	Hot []LinkStat `json:"hot"`
	// all holds every link's stats (same sort as Hot, untruncated) for
	// diffing; kept out of the JSON to keep reports small.
	all []LinkStat
}

func linkReport(events []trace.Event, topo *cluster.Topology, start, end float64) *LinkReport {
	n := topo.NumMachines()
	lvl := cluster.BisectionLevels(topo)
	span := end - start
	// Rounded here and in the bucket loop: the division compiles to a
	// multiply, and no product may fuse into a multiply-add (DESIGN.md).
	width := float64(span / timelineBuckets)

	// Dense tables: links[src*n+dst] per directed pair and levels[d] per
	// bisection level down to the deepest. A row is in use once a transfer
	// has landed on it.
	depth := 0
	for _, row := range lvl {
		depth = max(depth, slices.Max(row))
	}
	links := make([]LinkStat, n*n)
	levels := make([]LevelStat, depth+1)
	for d := range levels {
		levels[d] = LevelStat{Level: d, Timeline: make([]float64, timelineBuckets)}
	}
	for i := range events {
		ev := &events[i]
		// Migration traffic occupies the same NICs as application traffic,
		// so it counts toward link utilization too.
		if ev.Kind != trace.KindTransfer && ev.Kind != trace.KindPartitionMigrate {
			continue
		}
		if ev.Machine < 0 || ev.Dst < 0 || ev.Machine >= n || ev.Dst >= n {
			continue
		}
		st := &links[ev.Machine*n+ev.Dst]
		ls := &levels[lvl[ev.Machine][ev.Dst]]
		if st.Transfers == 0 {
			*st = LinkStat{Src: ev.Machine, Dst: ev.Dst, Level: ls.Level}
			ls.Links++
		}
		st.Transfers++
		st.Bytes += ev.Bytes
		st.BusySeconds += ev.End - ev.Start
		st.StallSeconds += ev.Stall

		ls.Transfers++
		ls.Bytes += ev.Bytes
		ls.BusySeconds += ev.End - ev.Start
		if width > 0 {
			// Spread the busy interval over the buckets it overlaps.
			for b := 0; b < timelineBuckets; b++ {
				blo := start + float64(float64(b)*width)
				bhi := blo + width
				lo, hi := ev.Start, ev.End
				if lo < blo {
					lo = blo
				}
				if hi > bhi {
					hi = bhi
				}
				if lo < hi {
					ls.Timeline[b] += hi - lo
				}
			}
		}
	}

	rep := &LinkReport{}
	for _, ls := range levels {
		if ls.Transfers > 0 {
			rep.Levels = append(rep.Levels, ls)
		}
	}
	// The pairs in use, compacted in place: an empty list stays non-nil,
	// so a report without transfers keeps "hot": [] in its JSON.
	all := slices.DeleteFunc(links, func(st LinkStat) bool { return st.Transfers == 0 })
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.BusySeconds != b.BusySeconds {
			return a.BusySeconds > b.BusySeconds
		}
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	rep.all = all
	rep.Hot = all
	if len(rep.Hot) > 5 {
		rep.Hot = rep.Hot[:5]
	}
	return rep
}
