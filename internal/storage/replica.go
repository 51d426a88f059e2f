package storage

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// ReplicationFactor is the number of copies of each partition, following
// GFS (§3: "each partition has three replicas on different slave machines").
const ReplicationFactor = 3

// Replicas records, per partition, the machines holding its copies. The
// first replica is the primary from the placement; the engine reads the
// primary and fails over to the others when the primary's machine dies.
type Replicas struct {
	Machines [][]cluster.MachineID
}

// PlaceReplicas derives a replica layout from a primary placement,
// GFS-style: replica 2 goes to a different machine in the same pod as the
// primary when one exists (cheap re-replication, switch-local reads) and
// replica 3 to a machine in another pod when one exists (pod-failure
// tolerance). Degenerate topologies fall back to any distinct machines; a
// topology with fewer machines than ReplicationFactor gets as many distinct
// replicas as machines exist.
func PlaceReplicas(pl *partition.Placement, topo *cluster.Topology, seed int64) *Replicas {
	rng := rand.New(rand.NewSource(seed))
	n := topo.NumMachines()
	r := &Replicas{Machines: make([][]cluster.MachineID, pl.NumPartitions())}
	for p, primary := range pl.MachineOf {
		replicas := []cluster.MachineID{primary}
		pick := func(want func(cluster.MachineID) bool) bool {
			// Random probing with a deterministic full scan fallback.
			for try := 0; try < 2*n; try++ {
				m := cluster.MachineID(rng.Intn(n))
				if want(m) && !containsMachine(replicas, m) {
					replicas = append(replicas, m)
					return true
				}
			}
			for i := 0; i < n; i++ {
				m := cluster.MachineID(i)
				if want(m) && !containsMachine(replicas, m) {
					replicas = append(replicas, m)
					return true
				}
			}
			return false
		}
		samePod := func(m cluster.MachineID) bool { return topo.SamePod(m, primary) }
		otherPod := func(m cluster.MachineID) bool { return !topo.SamePod(m, primary) }
		any := func(cluster.MachineID) bool { return true }
		if !pick(samePod) {
			pick(any)
		}
		if len(replicas) < ReplicationFactor && !pick(otherPod) {
			pick(any)
		}
		r.Machines[p] = replicas
	}
	return r
}

// Primary returns the primary machine of partition p.
func (r *Replicas) Primary(p partition.PartID) cluster.MachineID {
	return r.Machines[p][0]
}

// Failover returns the first replica of p that excluded does not reject, or
// an error naming p when every replica is rejected. The engine excludes not
// just dead machines but also draining, retired and still-dormant ones.
func (r *Replicas) Failover(p partition.PartID, excluded func(cluster.MachineID) bool) (cluster.MachineID, error) {
	for _, m := range r.Machines[p] {
		if !excluded(m) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("storage: all %d replicas of partition %d are excluded", len(r.Machines[p]), p)
}

// MigrationTarget picks the machine a partition migrates to when its home
// drains: deterministically the lowest-ID available machine holding a
// replica of p (the copy is already local — cheapest handoff), else the
// lowest-ID available machine overall. available must be stable across
// worker counts for determinism; load balancing is the caller's concern via
// the available predicate.
func (r *Replicas) MigrationTarget(p partition.PartID, numMachines int, available func(cluster.MachineID) bool) (cluster.MachineID, error) {
	best := cluster.MachineID(-1)
	for _, m := range r.Machines[p] {
		if available(m) && (best < 0 || m < best) {
			best = m
		}
	}
	if best >= 0 {
		return best, nil
	}
	for i := 0; i < numMachines; i++ {
		if available(cluster.MachineID(i)) {
			return cluster.MachineID(i), nil
		}
	}
	return 0, fmt.Errorf("storage: no available migration target for partition %d", p)
}

// Validate checks that each partition has distinct replica machines and at
// least one replica.
func (r *Replicas) Validate(topo *cluster.Topology) error {
	for p, ms := range r.Machines {
		if len(ms) == 0 {
			return fmt.Errorf("storage: partition %d has no replicas", p)
		}
		seen := map[cluster.MachineID]bool{}
		for _, m := range ms {
			if int(m) < 0 || int(m) >= topo.NumMachines() {
				return fmt.Errorf("storage: partition %d replica on invalid machine %d", p, m)
			}
			if seen[m] {
				return fmt.Errorf("storage: partition %d has duplicate replica machine %d", p, m)
			}
			seen[m] = true
		}
	}
	return nil
}

func containsMachine(ms []cluster.MachineID, m cluster.MachineID) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}
