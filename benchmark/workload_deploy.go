package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// deployLevels is log2 of the partition count of the three large workloads.
const deployLevels = 6

// deployWorkload builds a whole deployment in every repetition.
type deployWorkload struct {
	c    *config
	g    *graph.Graph
	topo *cluster.Topology
	ref  []float64 // ReferenceNR(g, 1)
	d    *deployment
}

func setupDeploy(t *tracer, c *config, n int) (instance, error) {
	w := &deployWorkload{c: c, g: generate(t, n, c.seed), topo: treeTopology(t, 32)}
	t.span("apps.reference", func() error {
		w.ref = apps.ReferenceNR(w.g, 1)
		return nil
	})
	return w, nil
}

func (w *deployWorkload) work() float64 { return float64(w.g.NumEdges()) }

func (w *deployWorkload) rep(t *tracer) (err error) {
	w.d, err = deploy(t, w.g, w.topo, deployLevels, w.c.seed)
	return err
}

// verify checks that the deployment serves: one NR iteration at O4 on the
// sketch placement must match the sequential reference. Its simulated
// response and traffic are the virtual statistics paired with the host time
// of this workload — a partitioner change that worsens the layout moves them.
func (w *deployWorkload) verify(t *tracer) outcome {
	d := w.d
	o := outcome{ier: partition.InnerEdgeRatio(w.g, d.pt)}
	d.noteQuality(t)
	r := engine.New(engine.Config{Topo: d.topo, Workers: w.c.workers})
	got, m, err := apps.NewNR(1).RunPropagation(r, d.pg, d.placeBA, o4)
	if ok, _ := resultEqual(got, w.ref); err != nil || !ok {
		o.failed = append(o.failed, "deploy")
	}
	o.virtual = m
	h := newDigest()
	h.u64(uint64(d.pt.P))
	for _, p := range d.pt.Assign {
		h.u64(uint64(p))
	}
	for _, pl := range []*partition.Placement{d.placeBA, d.placeRnd} {
		for _, m := range pl.MachineOf {
			h.u64(uint64(m))
		}
	}
	for _, ms := range d.replicas.Machines {
		for _, m := range ms {
			h.u64(uint64(m))
		}
	}
	o.digest = h.sum()
	return o
}

// probe round-trips the partitioned graph through a scratch directory.
func (w *deployWorkload) probe(t *tracer) (map[string]bool, error) {
	dir := filepath.Join(w.c.outDir, "deploy-savedir")
	defer os.RemoveAll(dir)
	if err := t.span("storage.savedir", func() error { return w.d.pg.SaveDir(dir) }); err != nil {
		return nil, err
	}
	var loaded *storage.PartitionedGraph
	err := t.span("storage.loaddir", func() (err error) {
		loaded, err = storage.LoadDir(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := loaded.Validate(); err != nil {
		return nil, fmt.Errorf("reloaded partitioned graph: %w", err)
	}
	if !loaded.G.Equal(w.g) || loaded.Bytes() != w.d.pg.Bytes() {
		return nil, fmt.Errorf("reloaded partitioned graph differs from the one saved")
	}
	return nil, nil
}
