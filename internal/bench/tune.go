package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/propagation"
)

// The auto-tuner (surfer-tune) searches the deployment configuration space
// — partition count × combiner settings — for the lowest simulated response
// time, in two sweeps: the partition counts with both local optimisations
// on, then the four combinations of the two at the winning count. The
// objective is virtual time, so the search is deterministic: the same seed
// reproduces the same trace and winner.

// TunePoint is one configuration in the search space.
type TunePoint struct {
	// Levels is log2 of the partition count.
	Levels int
	// LocalProp / LocalComb are the §5.1 locality optimizations.
	LocalProp bool
	LocalComb bool
}

func (p TunePoint) String() string {
	return fmt.Sprintf("P=%d localProp=%v localComb=%v", 1<<p.Levels, p.LocalProp, p.LocalComb)
}

// TuneEval is one evaluated configuration.
type TuneEval struct {
	Point TunePoint
	// Objective is the minimized value: simulated response seconds.
	Objective float64
}

// TuneConfig parameterizes a search.
type TuneConfig struct {
	// Scale supplies the graph (Vertices, Seed) and cluster (Machines).
	// Scale.Levels is the partition count evaluated first.
	Scale Scale
	// App is any name apps.ByName knows (default "nr"), run for
	// tuneIterations where it iterates.
	App string
	// LevelsMin/LevelsMax bound the partition-count sweep, which must hold
	// Scale.Levels. Zeros select [1, Scale.Levels+2].
	LevelsMin, LevelsMax int
}

// TuneResult is the search outcome.
type TuneResult struct {
	Best TuneEval
	// Trace lists every evaluation in search order.
	Trace []TuneEval
}

func (c TuneConfig) withDefaults() TuneConfig {
	if c.LevelsMax == 0 {
		c.LevelsMax = c.Scale.Levels + 2
	}
	if c.LevelsMin == 0 {
		c.LevelsMin = 1
	}
	if c.App == "" {
		c.App = "nr"
	}
	return c
}

// Tune runs the two sweeps. Every level's deployment comes from
// NewDeploymentFor and runs on its random placement (O1/O3's), so the
// partition count is judged without the sketch layout's help.
func Tune(cfg TuneConfig) (*TuneResult, error) {
	cfg = cfg.withDefaults()
	if _, err := apps.ByName(cfg.App, tuneIterations); err != nil {
		return nil, err
	}
	if cfg.LevelsMin < 0 || cfg.Scale.Levels < cfg.LevelsMin || cfg.Scale.Levels > cfg.LevelsMax {
		return nil, fmt.Errorf("bench: tune sweeps [LevelsMin %d, LevelsMax %d], which must hold Scale.Levels %d", cfg.LevelsMin, cfg.LevelsMax, cfg.Scale.Levels)
	}
	topo, err := cluster.ByName("t1", cfg.Scale.Machines, 0, 0, cfg.Scale.Seed)
	if err != nil {
		return nil, err
	}
	g := cfg.Scale.MakeGraph()
	deploy := func(levels int) (*Deployment, error) {
		s := cfg.Scale
		s.Levels = levels
		return NewDeploymentFor(s, topo, g)
	}
	// The largest partition count is the one a bad bound makes impossible:
	// deploy it first, so core.Build's range error comes before any run.
	top, err := deploy(cfg.LevelsMax)
	if err != nil {
		return nil, err
	}

	res := &TuneResult{}
	var won *Deployment // the winner's, which the second sweep reuses
	eval := func(d *Deployment, p TunePoint) error {
		app, _ := apps.ByName(cfg.App, tuneIterations)
		opt := propagation.Options{LocalPropagation: p.LocalProp, LocalCombination: p.LocalComb}
		_, m, err := d.run(app, d.PlacePM, opt)
		if err != nil {
			return err
		}
		e := TuneEval{Point: p, Objective: m.ResponseSeconds}
		if len(res.Trace) == 0 || e.Objective < res.Best.Objective {
			res.Best, won = e, d
		}
		res.Trace = append(res.Trace, e)
		return nil
	}

	// Sweep 1: the partition counts, both local optimisations on, starting
	// from the scale's own.
	levels := []int{cfg.Scale.Levels}
	for l := cfg.LevelsMin; l <= cfg.LevelsMax; l++ {
		if l != cfg.Scale.Levels {
			levels = append(levels, l)
		}
	}
	for _, l := range levels {
		d := top
		if l != cfg.LevelsMax {
			if d, err = deploy(l); err != nil {
				return nil, err
			}
		}
		if err := eval(d, TunePoint{Levels: l, LocalProp: true, LocalComb: true}); err != nil {
			return nil, err
		}
	}
	// Sweep 2: the other three flag combinations at the winning count.
	for _, lp := range []bool{false, true} {
		for _, lc := range []bool{false, true} {
			if lp && lc {
				continue
			}
			p := TunePoint{Levels: res.Best.Point.Levels, LocalProp: lp, LocalComb: lc}
			if err := eval(won, p); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// tuneIterations is how long an iterative app runs per evaluation: long
// enough that per-iteration cost, not set-up, is what the search compares.
const tuneIterations = 10

// WriteTune prints the search trace and winner.
func WriteTune(w io.Writer, cfg TuneConfig, res *TuneResult) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "surfer-tune: app=%s evals=%d\n", cfg.App, len(res.Trace))
	for i, e := range res.Trace {
		marker := " "
		if e.Point == res.Best.Point {
			marker = "*"
		}
		fmt.Fprintf(w, "%s %2d  %-38s %.3fs\n", marker, i, e.Point, e.Objective)
	}
	fmt.Fprintf(w, "best: %s  objective=%.3fs\n", res.Best.Point, res.Best.Objective)
}

// FromTune converts a tune result into the report schema: the winner's
// virtual seconds gate; the search shape goes to Info.
func FromTune(cfg TuneConfig, res *TuneResult) *Report {
	cfg = cfg.withDefaults()
	r := NewReport()
	r.Entries = append(r.Entries, Entry{
		Experiment: "tune",
		Case:       fmt.Sprintf("%s/%d", cfg.App, cfg.Scale.Vertices),
		Metrics:    map[string]float64{"best_virtual_seconds": res.Best.Objective},
		Info: map[string]float64{
			"evals":           float64(len(res.Trace)),
			"best_levels":     float64(res.Best.Point.Levels),
			"best_local_prop": b2f(res.Best.Point.LocalProp),
			"best_local_comb": b2f(res.Best.Point.LocalComb),
		},
	})
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
