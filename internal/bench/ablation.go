package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/propagation"
)

// AblationRow isolates the contribution of one design choice for one
// application on one topology.
type AblationRow struct {
	Topology string
	App      string
	Variant  string
	Metrics  engine.Metrics
}

// Ablation decomposes the end-to-end gains of DESIGN.md's called-out
// choices:
//
//   - the two local optimizations, separately and together (placement held
//     at balanced-random so only the optimizations vary);
//   - the three placements — unbalanced-random (the literal "random
//     available machine"), balanced-random (load-balance only) and the
//     sketch mapping (load balance + bandwidth awareness) — with both
//     local optimizations on.
//
// Running it on T1 and T2(2,1) — one bisection placed on each — separates
// intra-machine locality from pod locality.
func Ablation(s Scale) ([]AblationRow, error) {
	s = s.withMemo()
	t1, err := cluster.ByName("t1", s.Machines, 0, 0, s.Seed)
	if err != nil {
		return nil, err
	}
	t2, err := cluster.ByName("t2", s.Machines, 2, 1, s.Seed)
	if err != nil {
		return nil, err
	}
	g := s.MakeGraph()
	workloads := []apps.App{apps.NewNR(3), apps.NewTFL(apps.DefaultSelectRatio)}
	var rows []AblationRow
	for _, topo := range []*cluster.Topology{t1, t2} {
		d, err := NewDeploymentFor(s, topo, g)
		if err != nil {
			return nil, err
		}
		unbalanced := partition.UnbalancedRandomPlacement(d.PG.Part.P, topo, s.Seed)
		for _, app := range workloads {
			run := func(variant string, pl *partition.Placement, opt propagation.Options) error {
				_, m, err := d.run(app, pl, opt)
				if err != nil {
					return fmt.Errorf("%s/%s/%s: %w", topo.Name(), app.Name(), variant, err)
				}
				rows = append(rows, AblationRow{Topology: topo.Name(), App: app.Name(), Variant: variant, Metrics: m})
				return nil
			}
			both := propagation.Options{LocalPropagation: true, LocalCombination: true}
			// Optimization split (balanced-random placement).
			for _, v := range []struct {
				name string
				opt  propagation.Options
			}{
				{"opts:none", propagation.Options{}},
				{"opts:local-prop", propagation.Options{LocalPropagation: true}},
				{"opts:local-comb", propagation.Options{LocalCombination: true}},
				{"opts:both", both},
			} {
				if err := run(v.name, d.PlacePM, v.opt); err != nil {
					return nil, err
				}
			}
			// Placement split (both optimizations on). Balanced-random is
			// the opts:both run just made: its row is reused, not re-run.
			balanced := rows[len(rows)-1]
			balanced.Variant = "place:balanced"
			if err := run("place:unbalanced", unbalanced, both); err != nil {
				return nil, err
			}
			rows = append(rows, balanced)
			if err := run("place:sketch", d.PlaceBA, both); err != nil {
				return nil, err
			}
			// Tree aggregation (extension), on the spread placement
			// where cross-pod traffic is heaviest. NR only: TFL's
			// distinct-union merge barely shrinks bytes.
			if app.Name() == "NR" && topo.NumPods() > 1 {
				prog := apps.NRProgram(d.Graph)
				st := propagation.NewState[float64](d.PG, prog)
				_, m, err := propagation.RunIterationsTree(d.Runner(), d.PG, d.PlacePM, prog, st, both, app.Iterations())
				if err != nil {
					return nil, err
				}
				rows = append(rows, AblationRow{Topology: topo.Name(), App: app.Name(), Variant: "tree-aggregation", Metrics: m})
			}
		}
	}
	return rows, nil
}

// WriteAblation renders the ablation rows.
func WriteAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablation: contribution of each design choice (propagation)")
	fmt.Fprintf(w, "%-10s %-5s %-18s %12s %12s %12s\n",
		"Topology", "App", "Variant", "Resp (s)", "Net (MB)", "Disk (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-5s %-18s %12.4f %12.2f %12.2f\n",
			r.Topology, r.App, r.Variant,
			r.Metrics.ResponseSeconds,
			float64(r.Metrics.NetworkBytes)/1e6,
			float64(r.Metrics.DiskBytes)/1e6)
	}
}
