package partition

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// Placement maps each partition to the machine that stores and processes its
// primary replica.
type Placement struct {
	// MachineOf[p] is the machine storing partition p.
	MachineOf []cluster.MachineID
}

// NumPartitions reports how many partitions the placement covers.
func (pl *Placement) NumPartitions() int { return len(pl.MachineOf) }

// Validate checks that every partition has a machine within the topology.
func (pl *Placement) Validate(t *cluster.Topology) error {
	for p, m := range pl.MachineOf {
		if int(m) < 0 || int(m) >= t.NumMachines() {
			return fmt.Errorf("partition: partition %d placed on invalid machine %d", p, m)
		}
	}
	return nil
}

// BisectStep records one bisection performed during distributed
// partitioning, for the elapsed-time cost model (Table 1).
type BisectStep struct {
	// Depth is the sketch depth of the node being bisected (0 = root).
	Depth int
	// DataVertices and DataEdges size the subgraph being bisected.
	DataVertices int
	DataEdges    int64
	// Machines is the machine set performing this bisection.
	Machines []cluster.MachineID
	// Local marks a bisection performed entirely on one machine.
	Local bool
}

// Result bundles everything a partitioning run produces.
type Result struct {
	Partitioning *Partitioning
	Sketch       *Sketch
	Placement    *Placement
	Steps        []BisectStep
}

// BandwidthAware runs Algorithm 4: it simultaneously bisects the machine
// graph and the data graph, using each machine-graph half to process (and
// finally store) the corresponding data-graph half. The resulting placement
// realizes the three design principles P1–P3 of §4.1: sibling partitions in
// the sketch (many mutual cross edges, by proximity) land on machine sets
// with high mutual bandwidth. Bisecting a machine set draws no randomness, so
// the lockstep recursion is RecursiveBisect followed by a walk of its sketch.
func BandwidthAware(g *graph.Graph, topo *cluster.Topology, levels int, opt Options) *Result {
	pt, sk := RecursiveBisect(g, levels, opt)
	pl, steps := sk.walk(g, topo, (*cluster.MachineGraph).Bisect)
	return &Result{Partitioning: pt, Sketch: sk, Placement: pl, Steps: steps}
}

// ParMetisLike runs the same multilevel recursive bisection on the data
// graph but is oblivious to network bandwidth: at every recursion step a
// *random* half of the machine set processes each half of the data, and the
// final partitions are stored by an independent balanced RandomPlacement
// (seeded Seed+1), not on the machines that produced them — the baseline
// behaviour the paper attributes to ParMetis on cloud clusters ("randomly
// chooses the available machine for processing", §6.2).
func ParMetisLike(g *graph.Graph, topo *cluster.Topology, levels int, opt Options) *Result {
	pt, sk := RecursiveBisect(g, levels, opt)
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	pl := RandomPlacement(pt.P, topo, opt.Seed+1)
	_, steps := sk.walk(g, topo, func(mg *cluster.MachineGraph) (a, b *cluster.MachineGraph) {
		shuffled := slices.Clone(mg.Machines())
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h := len(shuffled) / 2
		return mg.Subgraph(shuffled[:h]), mg.Subgraph(shuffled[h:])
	})
	return &Result{Partitioning: pt, Sketch: sk, Placement: pl, Steps: steps}
}

// walk is the machine side of Algorithm 4 (BAPart), run over a finished
// sketch: it descends the tree with the topology's machine set at the root
// and, at every bisection of the data graph, the halves split makes of it.
// It returns where each leaf is stored and one BisectStep per bisection
// performed — sized by nodeSizes, so without edge counts when g is nil — for
// the cost model.
func (s *Sketch) walk(g *graph.Graph, topo *cluster.Topology, split func(*cluster.MachineGraph) (a, b *cluster.MachineGraph)) (*Placement, []BisectStep) {
	pl := &Placement{MachineOf: make([]cluster.MachineID, s.NumPartitions())}
	vertices, edges := s.nodeSizes(g)
	var steps []BisectStep
	var visit func(depth, index int, mg *cluster.MachineGraph)
	visit = func(depth, index int, mg *cluster.MachineGraph) {
		if depth == s.levels {
			// Algorithm 4 line 7-9: undividable data partition; store it on
			// the best-connected machine of the remaining machine set.
			pl.MachineOf[index] = mg.BestConnected()
			return
		}
		k := 1<<depth + index // heap order, as nodeSizes counts
		local := mg.Size() == 1
		steps = append(steps, BisectStep{
			Depth: depth, DataVertices: vertices[k], DataEdges: edges[k],
			Machines: mg.Machines(), Local: local,
		})
		if local {
			// Algorithm 4 line 2-5: a single machine divides the rest of the
			// way locally (one step) and stores all resulting partitions.
			span := 1 << (s.levels - depth)
			for p := index * span; p < (index+1)*span; p++ {
				pl.MachineOf[p] = mg.Machines()[0]
			}
			return
		}
		a, b := split(mg)
		visit(depth+1, 2*index, a)
		visit(depth+1, 2*index+1, b)
	}
	visit(0, 0, cluster.NewMachineGraph(topo))
	return pl, steps
}

// RandomPlacement places partitions on machines in a random but *balanced*
// way: every machine receives floor(P/N) or ceil(P/N) partitions, with the
// pairing randomized. This models a bandwidth-oblivious but load-balanced
// layout (what a topology-unaware scheduler produces); comparing it against
// SketchPlacement isolates bandwidth awareness from load balancing.
func RandomPlacement(p int, topo *cluster.Topology, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	n := topo.NumMachines()
	slots := make([]cluster.MachineID, p)
	for i := range slots {
		slots[i] = cluster.MachineID(i % n)
	}
	rng.Shuffle(p, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return &Placement{MachineOf: slots}
}

// UnbalancedRandomPlacement places each partition on a uniformly random
// machine with no balance constraint — the literal reading of "randomly
// chooses the available machine" (§6.2). Collisions leave some machines
// with several partitions and others with none, so comparisons against it
// mix load-balance and bandwidth-awareness effects; the ablation experiment
// separates the two.
func UnbalancedRandomPlacement(p int, topo *cluster.Topology, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	pl := &Placement{MachineOf: make([]cluster.MachineID, p)}
	for i := range pl.MachineOf {
		pl.MachineOf[i] = cluster.MachineID(rng.Intn(topo.NumMachines()))
	}
	return pl
}

// SketchPlacement derives a bandwidth-aware placement for an existing
// sketch-partitioned graph on a topology: it bisects the machine graph in
// lockstep with the sketch structure without re-partitioning the data. This
// is how optimization level O2/O4 layouts are derived from an O1/O3
// partitioning in the evaluation (§6.3).
func SketchPlacement(sk *Sketch, topo *cluster.Topology) *Placement {
	pl, _ := sk.walk(nil, topo, (*cluster.MachineGraph).Bisect)
	return pl
}
