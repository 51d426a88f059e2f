package bench

import (
	"fmt"
	"io"
	"strings"
)

// The experiment table: everything surfer-bench can regenerate, by name. The
// tool's -experiment help, the set "all" runs and the unknown-name error are
// all read off it, so a new experiment is one row here and nothing there.

// Params is what a surfer-bench invocation hands every experiment it runs.
type Params struct {
	// Scale sizes the run and carries its recorder and fault plan.
	Scale Scale
	// Iterations is the length of the cascade study.
	Iterations int
	// Sizes are the scale experiment's vertex counts (default: Scale.Vertices).
	Sizes []int
}

// Experiment is one row of the table.
type Experiment struct {
	Name string
	// All reports whether "-experiment all" includes it. The rest run only
	// when named: they run a whole workload several times over, or are a
	// second name for a row that is included.
	All bool
	// Run computes the experiment, renders it to w in the paper's layout
	// and returns its machine-readable report, nil if it has none.
	Run func(p Params, w io.Writer) (*Report, error)
}

// experiment assembles a Run from the three functions an experiment is:
// compute, render, and (optionally) convert to report entries.
func experiment[T any](compute func(Params) (T, error), write func(io.Writer, T), report func(T) *Report) func(Params, io.Writer) (*Report, error) {
	return func(p Params, w io.Writer) (*Report, error) {
		res, err := compute(p)
		if err != nil {
			return nil, err
		}
		write(w, res)
		if report == nil {
			return nil, nil
		}
		return report(res), nil
	}
}

// atScale adapts the computations that need nothing but the scale.
func atScale[T any](compute func(Scale) (T, error)) func(Params) (T, error) {
	return func(p Params) (T, error) { return compute(p.Scale) }
}

// Experiments returns the table, in the order "all" runs it. Each call
// returns a fresh one: table2 and table3 are two renderings of one grid,
// computed (and reported) by whichever of the two a table runs first.
func Experiments() []Experiment {
	var grid []AppLevelMetrics
	tables23 := func(write func(io.Writer, []AppLevelMetrics)) func(Params, io.Writer) (*Report, error) {
		return func(p Params, w io.Writer) (rep *Report, err error) {
			if grid == nil {
				if grid, err = Tables23(p.Scale); err != nil {
					return nil, err
				}
				rep = FromTables23(grid)
			}
			write(w, grid)
			return rep, nil
		}
	}
	scaling := experiment(atScale(Fig11And12), WriteFig11And12, nil)
	return []Experiment{
		{Name: "table1", All: true, Run: experiment(atScale(Table1), WriteTable1, FromTable1)},
		{Name: "table2", All: true, Run: tables23(WriteTable2)},
		{Name: "table3", All: true, Run: tables23(WriteTable3)},
		{Name: "table4", All: true, Run: experiment(func(Params) ([]Table4Row, error) { return Table4() }, WriteTable4, nil)},
		{Name: "table5", All: true, Run: experiment(atScale(Table5), WriteTable5, nil)},
		{Name: "fig6", All: true, Run: experiment(atScale(Fig6), WriteFig6, nil)},
		{Name: "fig7", All: true, Run: experiment(atScale(Fig7), WriteFig7, nil)},
		{Name: "fig9", All: true, Run: experiment(atScale(Fig9), WriteFig9, nil)},
		{Name: "fig10", All: true, Run: experiment(atScale(Fig10), WriteFig10, nil)},
		{Name: "fig11", All: true, Run: scaling},
		{Name: "fig12", Run: scaling}, // the same sweep: Figure 12 is its machine-time column
		{Name: "cascade", All: true, Run: experiment(func(p Params) (*CascadeResult, error) { return Cascade(p.Scale, p.Iterations) }, WriteCascade, nil)},
		{Name: "ablation", All: true, Run: experiment(atScale(Ablation), WriteAblation, nil)},
		// The whole workload once per policy.
		{Name: "multitenant", Run: experiment(atScale(Multitenant), WriteMultitenant, FromMultitenant)},
		// Two ten-iteration apps per size, sizes up to millions of vertices.
		{Name: "scale", Run: experiment(func(p Params) ([]TrajectoryRow, error) {
			if len(p.Sizes) == 0 {
				p.Sizes = []int{p.Scale.Vertices}
			}
			return ScaleExperiment(p.Scale, p.Sizes)
		}, WriteScale, FromScale)},
	}
}

// ExperimentNames lists what -experiment accepts, "all" last.
func ExperimentNames() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// SelectExperiments returns the rows -experiment name runs, in table order:
// the one of that name (any letter case), or for "all" every row marked All.
// A name the table does not hold is an error listing the ones it does.
func SelectExperiments(name string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Experiments() {
		if strings.EqualFold(name, e.Name) || strings.EqualFold(name, "all") && e.All {
			out = append(out, e)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("bench: unknown experiment %q (want %s)", name, strings.Join(ExperimentNames(), "|"))
	}
	return out, nil
}
