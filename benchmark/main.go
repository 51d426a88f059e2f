// Command benchmark measures the whole Surfer pipeline on the host clock:
// four workloads, each a closed loop with one client, timed from outside
// the program around the exported functions of its layers.
//
//	go run . -workload <name|all> [-seed 42] [-seconds 16] [-trace 1] [-out DIR]
//	go run . -stability [-seeds 10]
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	processStart := time.Now()
	var (
		name      = flag.String("workload", "all", "workload to run, or all (one process each)")
		seed      = flag.Int64("seed", 42, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 16, "time budget of the timed repetitions")
		trace     = flag.Int("trace", 0, "1 records a span per layer call and reports the per-layer metrics")
		out       = flag.String("out", ".bench_out", "directory for <workload>.json and <workload>.spans.json")
		stability = flag.Bool("stability", false, "run every workload twice per seed and fail where the two sets disagree")
		seeds     = flag.Int("seeds", 1, "with -stability: how many consecutive seeds each set covers")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	args := runArgs{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	var err error
	switch {
	case *stability:
		err = checkStability(args, *seeds)
	case *name == "all":
		for _, w := range workloads {
			if _, werr := runChild(w.name, args); werr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, werr)
				err = fmt.Errorf("a workload failed")
			}
		}
	default:
		err = runOne(*name, args, processStart)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runArgs are the flags a child process inherits.
type runArgs struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// runChild runs one workload in a process of its own, so that its peak
// memory is its own, and returns the result file it wrote.
func runChild(name string, a runArgs) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if a.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(a.seed),
		"-seconds", fmt.Sprint(a.seconds), "-trace", trace, "-out", a.out)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return readResult(resultPath(a.out, name, a.trace))
}

func resultPath(dir, name string, traced bool) string {
	if traced {
		name += ".trace"
	}
	return filepath.Join(dir, name+".json")
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runOne runs one workload in this process, prints its report, writes the
// result file and ends with the one-line summary the contract's driver reads.
func runOne(name string, a runArgs, processStart time.Time) error {
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	c := &config{
		workload: name, seed: a.seed, seconds: a.seconds, trace: a.trace,
		outDir: a.out, workers: workers,
	}
	res, err := run(c, processStart)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printReport(res)
	if err := os.MkdirAll(a.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(a.out, name, c.trace), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their checks: %v", name, res.Failed, res.Attempted, res.FailedOps)
	}
	return nil
}

// summary is the last line of a run: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (r *result) summary() map[string]any {
	reported := r.EndToEnd
	if r.Trace {
		reported = r.PerLayer
	}
	metrics := make(map[string]any, len(reported))
	for name, v := range reported {
		metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// printReport lists every metric by name with unit, direction and sample
// count, then the checks.
func printReport(r *result) {
	fmt.Printf("workload %s  seed %d  reps %d  set-up rounds %d  workers %d  %s %s  nproc %d\n",
		r.Workload, r.Seed, r.Reps, r.SetupRounds, r.Env.Workers, r.Env.GoVersion, r.Env.Platform, r.Env.NumCPU)
	row := func(d metricDef, v metricValue) {
		fmt.Printf("  %-30s %16.6g %-9s %-6s n=%d\n", d.Name, v.Value, v.Unit, d.Better, v.N)
	}
	fmt.Println("end to end (tracing off):")
	for _, d := range endToEnd {
		row(d, r.EndToEnd[d.Name])
	}
	fmt.Println("from the same repetitions (per-layer in BENCHMARK.json):")
	for _, d := range perLayer {
		if v, ok := r.Plain[d.Name]; ok {
			row(d, v)
		}
	}
	if r.Trace {
		fmt.Println("per layer (self time, median over traced repetitions; 0 = not on this workload):")
		for _, d := range perLayer {
			row(d, r.PerLayer[d.Name])
		}
	}
	names := make([]string, 0, len(r.Checks))
	for name := range r.Checks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("checks:")
	for _, name := range names {
		fmt.Printf("  %-30s %v\n", name, r.Checks[name])
	}
	fmt.Printf("  operations: %d attempted, %d failed %v\n", r.Attempted, r.Failed, r.FailedOps)
}
