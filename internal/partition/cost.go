package partition

import (
	"repro/internal/cluster"
	"repro/internal/graph"
)

// The elapsed-time model for distributed partitioning (Table 1).
//
// A distributed multilevel bisection of a subgraph on a machine set costs:
//
//  1. compute — coarsening, initial partitioning and refinement touch each
//     edge a few times: computePerEdge × edges / |machines|.
//  2. exchange — the machines performing the bisection exchange the
//     subgraph repeatedly during coarsening and refinement (matching
//     proposals, contracted graphs, boundary updates): exchangeFactor ×
//     bytes in an all-to-all pattern. Each machine moves its share across
//     its links into the rest of the set; the step finishes when the
//     worst-connected machine does.
//  3. staging — only when the machines processing a node are *not* the
//     machines holding its data. The bandwidth-oblivious baseline picks
//     random machines at every level ("ParMetis randomly chooses the
//     available machine for processing", §6.2), so it re-stages the node's
//     data over average random links each level, twice (fetch input, write
//     output). The bandwidth-aware algorithm keeps data in place down the
//     recursion and pays staging only at the root (initial load, which both
//     approaches share and which we therefore omit from both).
//
// Sibling bisections run on disjoint machine sets in parallel, so a level's
// elapsed time is the maximum over its nodes and the total is the sum over
// levels.
//
// The constants are calibrated so that the simulated cluster reproduces the
// relative ordering of Table 1 (equal methods on T1; bandwidth-aware 39–55%
// faster elsewhere).
const (
	// computePerEdge is seconds of CPU work per directed edge per pass of
	// the multilevel pipeline.
	computePerEdge = 1.0e-6
	// exchangeFactor scales the subgraph bytes exchanged all-to-all during
	// a distributed bisection.
	exchangeFactor = 3.0
	// stagingRounds is how many times a bandwidth-oblivious step re-moves
	// the node's data over random links.
	stagingRounds = 3
)

// PartitioningTime estimates the elapsed seconds of the distributed run that
// bisects g into sk on topo, two ways: aware is Algorithm 4, machine sets split
// by MachineGraph.Bisect; baseline is the bandwidth-oblivious run, machine sets
// split into random halves by a shuffle seeded with seed, paying staging.
func PartitioningTime(g *graph.Graph, sk *Sketch, topo *cluster.Topology, seed int64) (aware, baseline float64) {
	vertices, edges := sk.nodeSizes(g)
	elapsed := func(split func(*cluster.MachineGraph) (a, b *cluster.MachineGraph), staged bool) float64 {
		// Each level's elapsed time is the max over its nodes (disjoint
		// machine sets run in parallel); levels run one after the other.
		_, steps := sk.walk(topo, split)
		avgRandom := averagePairBandwidth(topo)
		var levelMax []float64
		for _, s := range steps {
			for len(levelMax) <= s.depth {
				levelMax = append(levelMax, 0)
			}
			t := stepTime(s, float64(vertices[s.node]), float64(edges[s.node]), topo, staged, avgRandom)
			levelMax[s.depth] = max(levelMax[s.depth], t)
		}
		var total float64
		for _, t := range levelMax {
			total += t
		}
		return total
	}
	return elapsed((*cluster.MachineGraph).Bisect, false), elapsed(randomHalves(seed), true)
}

func stepTime(s bisectStep, vertices, edges float64, topo *cluster.Topology, staged bool, avgRandom float64) float64 {
	bytes := float64(8*vertices) + float64(4*edges) // rounded: no fused multiply-add (DESIGN.md)
	nm := len(s.machines)
	compute := computePerEdge * edges / float64(nm)
	if s.local || nm <= 1 {
		// Single-machine bisection: CPU plus a disk pass over the data.
		return compute + 2*bytes/topo.DiskBandwidth()
	}
	// All-to-all exchange: each machine moves its share (bytes/nm ×
	// factor) into the rest of the set; bottleneck is the machine with the
	// lowest average bandwidth to its peers.
	perMachine := exchangeFactor * bytes / float64(nm)
	worst := 0.0
	for _, i := range s.machines {
		var bwSum float64
		for _, j := range s.machines {
			if i != j {
				bwSum += topo.Bandwidth(i, j)
			}
		}
		avg := bwSum / float64(nm-1)
		if t := perMachine / avg; t > worst {
			worst = t
		}
	}
	t := compute + worst
	if staged && s.depth > 0 {
		// Re-stage the node's data over average random links.
		t += stagingRounds * (bytes / float64(nm)) / avgRandom
	}
	return t
}

// averagePairBandwidth computes the mean bandwidth over all distinct
// machine pairs — the expected rate of a transfer between randomly chosen
// machines.
func averagePairBandwidth(t *cluster.Topology) float64 {
	n := t.NumMachines()
	if n < 2 {
		return cluster.LinkBandwidth
	}
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += t.Bandwidth(cluster.MachineID(i), cluster.MachineID(j))
			count++
		}
	}
	return sum / float64(count)
}
