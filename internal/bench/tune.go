package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// The auto-tuner (surfer-tune) searches the deployment configuration space
// — engine worker-pool size × partition count × combiner settings — by
// coordinate descent: sweep one axis holding the others at the incumbent,
// adopt the best point, move to the next axis, and repeat until a full
// cycle improves nothing (convergence) or the evaluation budget runs out.
//
// Two objectives are supported. The default, virtual response seconds of
// the simulated cluster, is fully deterministic: the tuner's trajectory and
// winner are reproducible from the seed, and the Workers axis is skipped
// because worker count never changes virtual results (the determinism
// contract). The wall objective measures host wall-clock adaptively
// (rerun until the relative standard error converges, see AdaptiveConfig)
// and includes the Workers axis — use it to tune a real host.

// Objective selects what the tuner minimizes.
type Objective int

const (
	// ObjVirtual minimizes simulated response seconds (deterministic).
	ObjVirtual Objective = iota
	// ObjWall minimizes adaptive host wall-clock seconds.
	ObjWall
)

func (o Objective) String() string {
	if o == ObjWall {
		return "wall"
	}
	return "virtual"
}

// TunePoint is one configuration in the search space.
type TunePoint struct {
	// Workers is the engine pool size (0 = GOMAXPROCS). Only searched
	// under ObjWall.
	Workers int
	// Levels is log2 of the partition count.
	Levels int
	// LocalProp / LocalComb are the §5.1 locality optimizations.
	LocalProp bool
	LocalComb bool
}

func (p TunePoint) String() string {
	return fmt.Sprintf("workers=%d P=%d localProp=%v localComb=%v", p.Workers, 1<<p.Levels, p.LocalProp, p.LocalComb)
}

// TuneEval is one evaluated configuration.
type TuneEval struct {
	Point TunePoint
	// Objective is the minimized value (virtual or wall seconds); Wall
	// carries the adaptive measurement under ObjWall.
	Objective float64
	Wall      AdaptiveResult
	// VirtualSeconds is always recorded (deterministic context).
	VirtualSeconds float64
}

// TuneConfig parameterizes a search.
type TuneConfig struct {
	// Scale supplies the graph (Vertices, Seed) and cluster (Machines).
	// Scale.Levels seeds the partition-count axis' starting point.
	Scale Scale
	// App is any name apps.ByName knows (default "nr"), run for
	// tuneIterations where it iterates.
	App string
	// Objective selects virtual (default) or wall minimization.
	Objective Objective
	// Budget caps the number of distinct configuration evaluations
	// (cached repeats are free). Zero selects 24.
	Budget int
	// LevelsMin/LevelsMax bound the partition-count axis. Zeros select
	// [1, Scale.Levels+2].
	LevelsMin, LevelsMax int
	// WorkersAxis lists the pool sizes swept under ObjWall. Empty selects
	// {1, 2, 4, 8}.
	WorkersAxis []int
	// Adaptive bounds the wall measurements under ObjWall.
	Adaptive AdaptiveConfig
	// MaxCycles caps the coordinate-descent cycles. Zero selects 4.
	MaxCycles int
}

// TuneResult is the search outcome.
type TuneResult struct {
	Best TuneEval
	// Trace lists every distinct evaluation in search order.
	Trace []TuneEval
	// Cycles is the number of full coordinate cycles run; Converged is
	// true when the last cycle improved nothing (as opposed to running
	// out of budget).
	Cycles    int
	Converged bool
}

func (c TuneConfig) withDefaults() TuneConfig {
	if c.Budget <= 0 {
		c.Budget = 24
	}
	if c.LevelsMax <= 0 {
		c.LevelsMax = c.Scale.Levels + 2
	}
	if c.LevelsMin <= 0 {
		c.LevelsMin = 1
	}
	if c.LevelsMax < c.LevelsMin {
		c.LevelsMax = c.LevelsMin
	}
	if len(c.WorkersAxis) == 0 {
		c.WorkersAxis = []int{1, 2, 4, 8}
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 4
	}
	if c.App == "" {
		c.App = "nr"
	}
	return c
}

// tuner carries the search state: the graph is generated once, partitioning
// (the expensive step) is cached per level, and evaluations are cached per
// point so re-visited configurations are free.
type tuner struct {
	cfg   TuneConfig
	topo  *cluster.Topology
	pgs   map[int]*storage.PartitionedGraph
	pls   map[int]*partition.Placement
	evals map[TunePoint]TuneEval
	trace []TuneEval
	spent int
}

// Tune runs the coordinate-descent search.
func Tune(cfg TuneConfig) (*TuneResult, error) {
	cfg = cfg.withDefaults()
	g := cfg.Scale.MakeGraph()
	tn := &tuner{
		cfg:   cfg,
		topo:  cluster.NewT1(cfg.Scale.Machines),
		pgs:   make(map[int]*storage.PartitionedGraph),
		pls:   make(map[int]*partition.Placement),
		evals: make(map[TunePoint]TuneEval),
	}
	deploy := func(levels int) (*storage.PartitionedGraph, *partition.Placement, error) {
		if pg, ok := tn.pgs[levels]; ok {
			return pg, tn.pls[levels], nil
		}
		pt, _ := partition.RecursiveBisect(g, levels, partition.Options{Seed: cfg.Scale.Seed})
		pg, err := storage.Build(g, pt)
		if err != nil {
			return nil, nil, err
		}
		tn.pgs[levels] = pg
		tn.pls[levels] = partition.RandomPlacement(pt.P, tn.topo, cfg.Scale.Seed)
		return pg, tn.pls[levels], nil
	}
	if _, err := apps.ByName(cfg.App, tuneIterations); err != nil {
		return nil, err
	}

	eval := func(p TunePoint) (TuneEval, error) {
		if e, ok := tn.evals[p]; ok {
			return e, nil
		}
		if tn.spent >= cfg.Budget {
			return TuneEval{}, errBudget
		}
		tn.spent++
		pg, pl, err := deploy(p.Levels)
		if err != nil {
			return TuneEval{}, err
		}
		opt := propagation.Options{LocalPropagation: p.LocalProp, LocalCombination: p.LocalComb}
		var m engine.Metrics
		runOnce := func() error {
			app, err := apps.ByName(cfg.App, tuneIterations)
			if err != nil {
				return err
			}
			r := engine.New(engine.Config{Topo: tn.topo, Workers: p.Workers})
			_, rm, err := app.RunPropagation(r, pg, pl, opt)
			m = rm
			return err
		}
		e := TuneEval{Point: p}
		if cfg.Objective == ObjWall {
			wall, err := MeasureWall(cfg.Adaptive, runOnce)
			if err != nil {
				return TuneEval{}, err
			}
			e.Wall = wall
			e.Objective = wall.Mean
		} else {
			if err := runOnce(); err != nil {
				return TuneEval{}, err
			}
			e.Objective = m.ResponseSeconds
		}
		e.VirtualSeconds = m.ResponseSeconds
		tn.evals[p] = e
		tn.trace = append(tn.trace, e)
		return e, nil
	}

	// Starting point: the scale's own configuration at O4.
	start := TunePoint{Workers: cfg.Scale.Workers, Levels: cfg.Scale.Levels, LocalProp: true, LocalComb: true}
	if start.Levels < cfg.LevelsMin {
		start.Levels = cfg.LevelsMin
	}
	if start.Levels > cfg.LevelsMax {
		start.Levels = cfg.LevelsMax
	}
	best, err := eval(start)
	if err != nil {
		return nil, err
	}

	res := &TuneResult{}
	// Coordinate axes, each generating candidates around the incumbent.
	levelsAxis := func(p TunePoint) []TunePoint {
		var out []TunePoint
		for l := cfg.LevelsMin; l <= cfg.LevelsMax; l++ {
			q := p
			q.Levels = l
			out = append(out, q)
		}
		return out
	}
	combAxis := func(p TunePoint) []TunePoint {
		var out []TunePoint
		for _, lp := range []bool{false, true} {
			for _, lc := range []bool{false, true} {
				q := p
				q.LocalProp, q.LocalComb = lp, lc
				out = append(out, q)
			}
		}
		return out
	}
	workersAxis := func(p TunePoint) []TunePoint {
		var out []TunePoint
		for _, w := range cfg.WorkersAxis {
			q := p
			q.Workers = w
			out = append(out, q)
		}
		return out
	}
	axes := []func(TunePoint) []TunePoint{levelsAxis, combAxis}
	if cfg.Objective == ObjWall {
		axes = append(axes, workersAxis)
	}

	for cycle := 0; cycle < cfg.MaxCycles; cycle++ {
		improved := false
		for _, axis := range axes {
			for _, cand := range axis(best.Point) {
				e, err := eval(cand)
				if err == errBudget {
					res.Cycles = cycle + 1
					res.Best = best
					res.Trace = tn.trace
					return res, nil
				}
				if err != nil {
					return nil, err
				}
				if e.Objective < best.Objective {
					best = e
					improved = true
				}
			}
		}
		res.Cycles = cycle + 1
		if !improved {
			res.Converged = true
			break
		}
	}
	res.Best = best
	res.Trace = tn.trace
	return res, nil
}

// tuneIterations is how long an iterative app runs per evaluation: long
// enough that per-iteration cost, not set-up, is what the search compares.
const tuneIterations = 10

// errBudget is the internal out-of-budget sentinel.
var errBudget = fmt.Errorf("bench: tune evaluation budget exhausted")

// WriteTune prints the search trace and winner.
func WriteTune(w io.Writer, cfg TuneConfig, res *TuneResult) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "surfer-tune: app=%s objective=%s budget=%d evals=%d cycles=%d converged=%v\n",
		cfg.App, cfg.Objective, cfg.Budget, len(res.Trace), res.Cycles, res.Converged)
	for i, e := range res.Trace {
		marker := " "
		if e.Point == res.Best.Point {
			marker = "*"
		}
		if cfg.Objective == ObjWall {
			fmt.Fprintf(w, "%s %2d  %-44s %s  (virtual %.2fs)\n", marker, i, e.Point, e.Wall, e.VirtualSeconds)
		} else {
			fmt.Fprintf(w, "%s %2d  %-44s %.3fs\n", marker, i, e.Point, e.Objective)
		}
	}
	fmt.Fprintf(w, "best: %s  objective=%.3fs\n", res.Best.Point, res.Best.Objective)
}

// FromTune converts a (deterministic-objective) tune result into the report
// schema: the winner's virtual seconds gate; the search shape goes to Info.
func FromTune(cfg TuneConfig, res *TuneResult) *Report {
	cfg = cfg.withDefaults()
	r := NewReport()
	info := map[string]float64{
		"evals":           float64(len(res.Trace)),
		"cycles":          float64(res.Cycles),
		"best_workers":    float64(res.Best.Point.Workers),
		"best_levels":     float64(res.Best.Point.Levels),
		"best_local_prop": b2f(res.Best.Point.LocalProp),
		"best_local_comb": b2f(res.Best.Point.LocalComb),
	}
	if res.Converged {
		info["converged"] = 1
	} else {
		info["converged"] = 0
	}
	r.Entries = append(r.Entries, Entry{
		Experiment: "tune",
		Case:       fmt.Sprintf("%s/%d", cfg.App, cfg.Scale.Vertices),
		Metrics:    map[string]float64{"best_virtual_seconds": res.Best.VirtualSeconds},
		Info:       info,
	})
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
