package partition

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cluster"
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

// bisectStep is one bisection of a distributed run: sketch node (depth, index),
// heap node 1<<depth+index as nodeSizes numbers them, on a machine set.
type bisectStep struct {
	depth, node int
	machines    []cluster.MachineID
	local       bool
}

// walk is the machine side of Algorithm 4 (BAPart), run over a finished
// sketch: it descends the tree with the topology's machine set at the root
// and, at every bisection of the data graph, the halves split makes of it.
// It returns where each leaf is stored and the bisections performed, in visit
// order, for the cost model.
func (s *Sketch) walk(topo *cluster.Topology, split func(*cluster.MachineGraph) (a, b *cluster.MachineGraph)) (*Placement, []bisectStep) {
	pl := &Placement{MachineOf: make([]cluster.MachineID, s.NumPartitions())}
	var steps []bisectStep
	var visit func(depth, index int, mg *cluster.MachineGraph)
	visit = func(depth, index int, mg *cluster.MachineGraph) {
		if depth == s.levels {
			// Algorithm 4 line 7-9: undividable data partition; store it on
			// the best-connected machine of the remaining machine set.
			pl.MachineOf[index] = mg.BestConnected()
			return
		}
		local := mg.Size() == 1
		steps = append(steps, bisectStep{depth: depth, node: 1<<depth + index, machines: mg.Machines(), local: local})
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

// randomHalves is the oblivious baseline's split, ParMetis on a cloud cluster
// ("randomly chooses the available machine for processing", §6.2): random
// halves of each machine set, from one shuffle stream seeded with seed.
func randomHalves(seed int64) func(*cluster.MachineGraph) (a, b *cluster.MachineGraph) {
	rng := rand.New(rand.NewSource(seed))
	return func(mg *cluster.MachineGraph) (a, b *cluster.MachineGraph) {
		shuffled := slices.Clone(mg.Machines())
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h := len(shuffled) / 2
		return mg.Subgraph(shuffled[:h]), mg.Subgraph(shuffled[h:])
	}
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

// SketchPlacement is Algorithm 4's placement of a finished bisection: it
// bisects the machine graph in lockstep with the sketch, so sketch siblings
// (many mutual cross edges) land on machine sets with high mutual bandwidth
// (P1–P3 of §4.1). It draws no randomness, so one bisection serves every
// topology.
func SketchPlacement(sk *Sketch, topo *cluster.Topology) *Placement {
	pl, _ := sk.walk(topo, (*cluster.MachineGraph).Bisect)
	return pl
}
