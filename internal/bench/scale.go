package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/engine"
)

// The scale experiment records the simulated cluster's trajectory from small
// to multi-million-vertex graphs: for each size it deploys the social graph
// and runs TFL (1-in-10 sample, the paper's heaviest data mover) and NR (10
// iterations) at O3 — random placement, both local optimisations. Its
// virtual metrics are bit-identical across runs and gate regressions via
// surfer-analyze -compare; host wall-clock per phase is benchmark/'s to
// measure.

// TrajectoryRow is the measurement at one graph size.
type TrajectoryRow struct {
	Vertices int
	Edges    int64
	P        int
	TFL      engine.Metrics
	NR       engine.Metrics
}

// ScaleExperiment runs the scale trajectory over the given vertex counts,
// deriving every other parameter (seed, levels, machines) from s.
func ScaleExperiment(s Scale, sizes []int) ([]TrajectoryRow, error) {
	var rows []TrajectoryRow
	for _, n := range sizes {
		sc := s
		sc.Vertices = n
		d, err := NewDeployment(sc)
		if err != nil {
			return nil, fmt.Errorf("bench: scale at %d vertices: %w", n, err)
		}
		row := TrajectoryRow{Vertices: d.Graph.NumVertices(), Edges: d.Graph.NumEdges(), P: d.PG.Part.P}
		if row.TFL, err = d.RunApp(apps.NewTFL(10), O3); err != nil {
			return nil, err
		}
		if row.NR, err = d.RunApp(apps.NewNR(10), O3); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteScale prints the trajectory as a table.
func WriteScale(w io.Writer, rows []TrajectoryRow) {
	fmt.Fprintf(w, "Scale trajectory (TFL 1-in-10 + NR x10 at O3)\n")
	fmt.Fprintf(w, "%10s %10s %5s %12s %12s\n", "vertices", "edges", "P", "tfl-virt(s)", "nr-virt(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %10d %5d %12.2f %12.2f\n",
			r.Vertices, r.Edges, r.P, r.TFL.ResponseSeconds, r.NR.ResponseSeconds)
	}
}

// FromScale converts scale rows into the report schema: virtual metrics
// gate, the graph's shape goes to Info.
func FromScale(rows []TrajectoryRow) *Report {
	r := NewReport()
	for _, row := range rows {
		for _, app := range []struct {
			name string
			m    engine.Metrics
		}{{"tfl", row.TFL}, {"nr", row.NR}} {
			r.Entries = append(r.Entries, Entry{
				Experiment: "scale",
				Case:       fmt.Sprintf("%s/%d", app.name, row.Vertices),
				Metrics: metricsOf(app.m.ResponseSeconds, app.m.MachineSeconds,
					app.m.NetworkBytes, app.m.DiskBytes, app.m.TasksRun),
				Info: map[string]float64{"edges": float64(row.Edges), "partitions": float64(row.P)},
			})
		}
	}
	return r
}
