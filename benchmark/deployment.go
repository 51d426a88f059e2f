package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// deployment is a graph partitioned, stored, placed and replicated on a
// topology: what deploy_262k builds in every repetition and the other
// workloads build once in set-up.
type deployment struct {
	g        *graph.Graph
	topo     *cluster.Topology
	pt       *partition.Partitioning
	sk       *partition.Sketch
	pg       *storage.PartitionedGraph
	placeBA  *partition.Placement // sketch (bandwidth-aware) placement: O2/O4
	placeRnd *partition.Placement // balanced random placement: O1/O3, MapReduce
	replicas *storage.Replicas
}

// generate makes the seeded social graph and notes its size.
func generate(t *tracer, n int, seed int64) *graph.Graph {
	var g *graph.Graph
	t.span("graph.gen", func() error {
		g = graph.Social(graph.DefaultSocial(n, seed))
		return nil
	})
	t.count("graph.bytes", float64(g.SizeBytes()))
	t.count("graph.edges", float64(g.NumEdges()))
	return g
}

// treeTopology builds T2(machines, 4 pods, 1 level) and reads its bandwidth
// matrix, as every consumer of the topology does.
func treeTopology(t *tracer, machines int) *cluster.Topology {
	var topo *cluster.Topology
	t.span("cluster.topology", func() error {
		topo = cluster.NewT2(cluster.T2Config{Machines: machines, Pods: 4, Levels: 1})
		topo.BandwidthMatrix()
		return nil
	})
	return topo
}

// deploy runs the deployment pipeline, one span per layer call, and
// validates everything it built.
func deploy(t *tracer, g *graph.Graph, topo *cluster.Topology, levels int, seed int64) (*deployment, error) {
	d := &deployment{g: g, topo: topo}
	t.span("partition.bisect", func() error {
		d.pt, d.sk = partition.RecursiveBisect(g, levels, partition.Options{Seed: seed})
		return nil
	})
	err := t.span("storage.build", func() (err error) {
		d.pg, err = storage.Build(g, d.pt)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.span("partition.place", func() error {
		d.placeBA = partition.SketchPlacement(d.sk, topo)
		d.placeRnd = partition.RandomPlacement(d.pt.P, topo, seed)
		return nil
	})
	t.span("storage.replicas", func() error {
		d.replicas = storage.PlaceReplicas(d.placeBA, topo, seed)
		return nil
	})
	for _, err := range []error{
		d.pt.Validate(), d.sk.Validate(d.pt), d.pg.Validate(),
		d.placeBA.Validate(topo), d.placeRnd.Validate(topo), d.replicas.Validate(topo),
	} {
		if err != nil {
			return nil, fmt.Errorf("deployment invalid: %w", err)
		}
	}
	return d, nil
}

// noteQuality records the partitioning's quality counters.
func (d *deployment) noteQuality(t *tracer) {
	t.count("partition.cross_edges", float64(partition.CrossEdges(d.g, d.pt)))
	t.count("partition.balance", partition.Balance(d.pt))
	t.count("storage.bytes", float64(d.pg.Bytes()))
}
