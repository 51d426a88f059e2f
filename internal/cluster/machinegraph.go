package cluster

import "sort"

// MachineGraph is the complete undirected weighted graph the bandwidth-aware
// partitioning algorithm bisects (§4.2): each vertex is a machine and each
// edge weight is the calibrated bandwidth between the two machines.
type MachineGraph struct {
	machines []MachineID
	topo     *Topology
}

// NewMachineGraph constructs the machine graph over all machines of a
// topology. In a real deployment the weights come from bandwidth
// calibration; here they come from the topology model directly.
func NewMachineGraph(t *Topology) *MachineGraph {
	ms := make([]MachineID, t.NumMachines())
	for i := range ms {
		ms[i] = MachineID(i)
	}
	return &MachineGraph{machines: ms, topo: t}
}

// Subgraph returns a machine graph restricted to the given machines, which
// it keeps without copying.
func (mg *MachineGraph) Subgraph(ms []MachineID) *MachineGraph {
	return &MachineGraph{machines: ms, topo: mg.topo}
}

// Machines returns the machines in this (sub)graph. Callers must not modify
// the returned slice.
func (mg *MachineGraph) Machines() []MachineID { return mg.machines }

// Size reports the number of machines in this (sub)graph.
func (mg *MachineGraph) Size() int { return len(mg.machines) }

// Weight reports the bandwidth between two member machines.
func (mg *MachineGraph) Weight(a, b MachineID) float64 { return mg.topo.Bandwidth(a, b) }

// Bisect splits the machine graph into two halves of (near-)equal size,
// minimizing the aggregate bandwidth crossing the cut — the objective of
// §4.2: low cross-cut bandwidth machine sets receive the data-graph
// partitions with few cross-partition edges.
//
// The machine graph is tiny (tens to thousands of vertices) so Surfer runs a
// local algorithm (the paper uses Metis). We use greedy growing from the
// best-connected seed followed by exhaustive pairwise-swap refinement, which
// is exact on the paper's pod-structured instances: machines in a pod have
// uniformly higher mutual bandwidth, so any pod-respecting cut is optimal.
func (mg *MachineGraph) Bisect() (*MachineGraph, *MachineGraph) {
	n := len(mg.machines)
	if n < 2 {
		panic("cluster: cannot bisect fewer than 2 machines")
	}
	half := n / 2
	inA := make(map[MachineID]bool, half)

	// Seed with the machine with the highest total bandwidth to others:
	// growing from a well-connected machine keeps its pod together.
	seed := mg.machines[0]
	best := -1.0
	for _, m := range mg.machines {
		var s float64
		for _, o := range mg.machines {
			if o != m {
				s += mg.Weight(m, o)
			}
		}
		if s > best {
			best, seed = s, m
		}
	}
	inA[seed] = true
	for len(inA) < half {
		// Add the outside machine with maximum attraction to A.
		var pick MachineID
		bestGain := -1.0
		for _, m := range mg.machines {
			if inA[m] {
				continue
			}
			// Fold attraction in machine order, not map order: float
			// addition is not associative, and bestGain ties must not
			// depend on the runtime's map iteration.
			var gain float64
			for _, a := range mg.machines {
				if inA[a] {
					gain += mg.Weight(m, a)
				}
			}
			if gain > bestGain {
				bestGain, pick = gain, m
			}
		}
		inA[pick] = true
	}

	// Pairwise swap refinement: swap (a in A, b in B) while it reduces the
	// aggregate cut bandwidth.
	improved := true
	for improved {
		improved = false
		for _, a := range mg.machines {
			if !inA[a] {
				continue
			}
			for _, b := range mg.machines {
				if inA[b] {
					continue
				}
				if mg.swapGain(inA, a, b) > 1e-9 {
					delete(inA, a)
					inA[b] = true
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
	}

	var as, bs []MachineID
	for _, m := range mg.machines {
		if inA[m] {
			as = append(as, m)
		} else {
			bs = append(bs, m)
		}
	}
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return mg.Subgraph(as), mg.Subgraph(bs)
}

// swapGain computes the reduction in cut bandwidth from swapping a (in A)
// with b (in B).
func (mg *MachineGraph) swapGain(inA map[MachineID]bool, a, b MachineID) float64 {
	var before, after float64
	for _, m := range mg.machines {
		if m == a || m == b {
			continue
		}
		if inA[m] {
			before += mg.Weight(m, b) // b outside
			after += mg.Weight(m, a)  // a would be outside
		} else {
			before += mg.Weight(m, a)
			after += mg.Weight(m, b)
		}
	}
	// The a-b edge crosses the cut both before and after; it cancels.
	return before - after
}

// BestConnected returns the member machine with maximum aggregate bandwidth
// to the other members. Algorithm 4 line 8 stores an undividable partition
// on this machine.
func (mg *MachineGraph) BestConnected() MachineID {
	best := mg.machines[0]
	bestSum := -1.0
	for _, m := range mg.machines {
		var s float64
		for _, o := range mg.machines {
			if o != m {
				s += mg.Weight(m, o)
			}
		}
		if s > bestSum {
			bestSum, best = s, m
		}
	}
	return best
}
