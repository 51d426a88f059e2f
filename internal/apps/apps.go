// Package apps implements the paper's six benchmark applications (Appendix
// D) — network ranking (NR), recommender system (RS), triangle counting
// (TC), vertex degree distribution (VDD), reverse link graph (RLG) and
// two-hop friend lists (TFL) — each twice: once with the propagation
// primitive and once with the home-grown MapReduce primitive, plus a
// sequential reference used by the tests to pin down semantics.
package apps

import (
	"embed"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// Sources holds the source files of the paper's six applications, the user
// code whose lines Table 4 counts. Embedded, so the count does not depend on
// where the binary runs.
//
//go:embed vdd.go rs.go nr.go rlg.go tc.go tfl.go
var Sources embed.FS

// App is a benchmark application runnable under both primitives.
type App interface {
	// Name is the paper's abbreviation (NR, RS, ...).
	Name() string
	// Iterations is the number of propagation iterations the workload
	// runs (1 for single-pass applications).
	Iterations() int
	// Plan plans the propagation implementation: the opaque result it
	// computes, for cross-checking, and its engine jobs, a pure function of
	// pg, pl, the application's value and opt, not yet run.
	Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error)
	// RunPropagation is Plan replayed on r.
	RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error)
	// RunMapReduce executes the MapReduce implementation.
	RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error)
}

// table is the one name → application table: the paper's six in the order
// its tables use, then the two fixpoint extensions. iterations sizes the
// iterative ones (RS, NR); CC and SSSP take their bound from the input.
var table = []struct {
	name string
	make func(iterations int) App
}{
	{"VDD", func(int) App { return NewVDD() }},
	{"RS", func(iterations int) App {
		cfg := DefaultRSConfig()
		cfg.Iterations = iterations
		return NewRS(cfg)
	}},
	{"NR", func(iterations int) App { return NewNR(iterations) }},
	{"RLG", func(int) App { return NewRLG() }},
	{"TC", func(int) App { return NewTC(DefaultSelectRatio) }},
	{"TFL", func(int) App { return NewTFL(DefaultSelectRatio) }},
	{"CC", func(int) App { return NewCC(0) }},
	{"SSSP", func(int) App { return NewSSSP(0, 0) }},
}

// runPropagation is every application's RunPropagation: Plan, replayed on r.
func runPropagation(a App, r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	res, jobs, err := a.Plan(r.Pool(), pg, pl, opt)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	m, err := r.RunJobs(jobs)
	if err != nil {
		return nil, m, err
	}
	return res, m, nil
}

// planValues is a plan whose result is its final state's values.
func planValues[V any](jobs []*engine.Job, st *propagation.State[V], err error) (any, []*engine.Job, error) {
	if err != nil {
		return nil, nil, err
	}
	return st.Values, jobs, nil
}

// paperApps is how many leading rows of table are the paper's own.
const paperApps = 6

// Names lists every application ByName knows, paper order first.
func Names() []string {
	names := make([]string, len(table))
	for i, row := range table {
		names[i] = row.name
	}
	return names
}

// ByName returns the application with the given abbreviation, in any letter
// case. A non-positive iterations selects the paper's three.
func ByName(name string, iterations int) (App, error) {
	if iterations <= 0 {
		iterations = 3
	}
	for _, row := range table {
		if strings.EqualFold(row.name, name) {
			return row.make(iterations), nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// All returns the six applications in the order the paper's tables use
// (VDD, RS, NR, RLG, TC, TFL).
func All() []App {
	all := make([]App, paperApps)
	for i := range all {
		all[i] = table[i].make(3)
	}
	return all
}

// DefaultSelectRatio is the vertex sampling ratio TC and TFL use ("the
// ratio of selected vertices is 10%", Appendix D).
const DefaultSelectRatio = 10

// Selected reports whether vertex v is in the deterministic sample used by
// TC and TFL: one in `ratio` vertices, spread by a multiplicative hash.
func Selected(v uint32, ratio int) bool {
	if ratio <= 1 {
		return true
	}
	return (uint64(v)*2654435761)%uint64(ratio) == 0
}
