package main

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	// seconds bounds the timed loop: repetitions start until this much time
	// has passed. reps, when positive, fixes their number instead (tests).
	seconds float64
	reps    int
	trace   bool
	outDir  string
	// vertices overrides the workload's graph size (tests run at toy scale).
	vertices int
	// workers sizes GOMAXPROCS and every engine.Pool: min(nproc, 4).
	workers int
}

// outcome is what verifying one repetition yields.
type outcome struct {
	// failed names the operations whose check failed.
	failed []string
	// virtual is the sum of the simulated runs' metrics; response also
	// carries the job service's makespans on fanout.
	virtual engine.Metrics
	ier     float64
	// exact holds the layers' counters; with virtual and digest they must
	// be bit-equal in every repetition.
	exact map[string]float64
	// digest is the SHA-256 of the repetition's outputs.
	digest string
	// phases are the wall times of the parts of an untraced repetition that
	// get their own rate (fanout: simulate, inspect).
	phases map[string]float64
}

// same reports whether two repetitions produced bit-identical simulated
// statistics, counters and outputs.
func (o *outcome) same(p *outcome) bool {
	return o.virtual == p.virtual && o.digest == p.digest && o.ier == p.ier && maps.Equal(o.exact, p.exact)
}

// instance is a workload after set-up.
type instance interface {
	// rep runs one repetition. With a nil tracer it is the plain operation
	// the end-to-end metrics time; with a tracer it records a span around
	// each call into a layer (nr and fanout then run the decomposed form
	// propagation.Iterate is made of).
	rep(t *tracer) error
	// verify checks the outputs of the repetition just run. It is not timed.
	verify(t *tracer) outcome
	// probe measures, in the traced run only and outside the repetition,
	// the layers a repetition does not isolate, and runs the Workers 1 vs N
	// checks. It returns the checks it made and whether each passed.
	probe(t *tracer) (map[string]bool, error)
	// work is edges x iterations one repetition processes.
	work() float64
}

// workload is one row of the workload table.
type workload struct {
	name     string
	why      string
	vertices int
	// ops is how many checked operations one repetition attempts.
	ops int
	// setups is how many times set-up runs; setup_s is their median. More
	// rounds where set-up is short and so noisy, fewer where it is long.
	setups int
	setup  func(t *tracer, c *config, n int) (instance, error)
}

var workloads = []workload{
	{name: "deploy_262k", vertices: 262144, ops: 1, setups: 5, setup: setupDeploy,
		why: "Only workload where the partitioner does the work: RecursiveBisect to replicas on 262k vertices, out of cache like the 1M run whose floor it is."},
	{name: "nr_262k", vertices: 262144, ops: 1, setups: 2, setup: setupNR,
		why: "Ten NR iterations at O4 on the deployment built in set-up: propagation compute and its serial merge dominate, the event loop idles, partitioning must not show."},
	{name: "suite_65k", vertices: 65536, ops: 12, setups: 3, setup: setupSuite,
		why: "The paper's six apps under propagation and MapReduce: list- and struct-valued bags beside scalars, so a scalar-path gain that costs the slab or shuffle path shows."},
	{name: "fanout_16k", vertices: 16384, ops: 6, setups: 3, setup: setupFanout,
		why: "Tiny compute on 256 partitions and 128 machines with faults and tracing on, then three job-service policies and the stream's five folds: the simulator as a program."},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	// N is how many samples the value is the median (or sum) of.
	N int `json:"n,omitempty"`
}

// result is what one run writes to <out>/<workload>.json.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	Reps        int                    `json:"reps"`
	SetupRounds int                    `json:"setup_rounds"`
	Env         envInfo                `json:"env"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedOps   []string               `json:"failed_ops,omitempty"`
	Checks      map[string]bool        `json:"checks"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	// Plain are the per-layer metrics that do not come from spans (phase
	// rates of the untraced repetitions, failures, peak memory), so an
	// untraced run reports them too.
	Plain map[string]metricValue `json:"plain"`
	// Exact are the deterministic statistics two runs of one seed must
	// agree on to the bit.
	Exact  map[string]float64 `json:"exact"`
	Digest string             `json:"digest"`
	// RepWalls are the wall times of the untraced timed repetitions, in the
	// order they ran: what wall_s and edges_per_s are reduced from.
	RepWalls []float64 `json:"rep_wall_s"`
}

type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

// sample is the measurement of one timed repetition.
type sample struct {
	wall    float64
	bytes   float64
	mallocs float64
}

// timed runs f after a collection, so one repetition's garbage is not the
// next one's pause, and measures its wall time and allocation.
func timed(f func() error) (sample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return sample{
		wall:    wall,
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		mallocs: float64(after.Mallocs - before.Mallocs),
	}, err
}

// run executes one workload as a closed loop with one client: set-up, one
// warm-up repetition, then timed repetitions one at a time until the time
// budget is spent, each verified before the next starts.
func run(c *config, processStart time.Time) (*result, error) {
	w := findWorkload(c.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	var tr *tracer
	if c.trace {
		tr = newTracer(processStart)
	}
	res := &result{
		Workload: w.name, Seed: c.seed, Trace: c.trace,
		Env: envInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: c.workers,
			GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Checks: map[string]bool{},
	}
	m, err := measure(c, w, tr, res, processStart)
	if err != nil {
		return nil, err
	}
	res.Reps = len(m.plain)
	res.SetupRounds = len(m.setupTimes)
	res.Digest = m.base.digest
	res.RepWalls = walls(m.plain)
	res.Exact = map[string]float64{
		"virtual_response_s":       m.base.virtual.ResponseSeconds,
		"virtual_machine_s":        m.base.virtual.MachineSeconds,
		"virtual_network_bytes":    float64(m.base.virtual.NetworkBytes),
		"virtual_disk_bytes":       float64(m.base.virtual.DiskBytes),
		"virtual_tasks_run":        float64(m.base.virtual.TasksRun),
		"virtual_transfer_drops":   float64(m.base.virtual.TransferDrops),
		"virtual_transfer_retries": float64(m.base.virtual.TransferRetries),
		"inner_edge_ratio":         m.base.ier,
	}
	maps.Copy(res.Exact, m.base.exact)
	res.EndToEnd = m.endToEnd()
	layers := map[string]float64{}
	if tr != nil {
		layers = m.layers(tr, c.workers, res)
	}
	// The per-layer metrics that do not come from spans: an untraced run
	// reports them too.
	reps := float64(len(m.plain))
	fromPlain := map[string]float64{
		"bench.events_per_s":         ratio((m.base.exact["engine_events"]+m.base.exact["jobsvc_events"])*reps, m.phases["simulate"]),
		"bench.inspect_events_per_s": ratio(m.base.exact["engine_events"]*reps, m.phases["inspect"]),
		"bench.failed_share":         ratio(float64(res.Failed), float64(res.Attempted)),
		"bench.peak_rss_mb":          peakRSSMB(),
	}
	maps.Copy(layers, fromPlain)
	report := func(n int, keep func(name string) bool) map[string]metricValue {
		out := make(map[string]metricValue)
		for _, d := range perLayer {
			if keep(d.Name) {
				out[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit, Better: d.Better, N: n}
			}
		}
		return out
	}
	res.Plain = report(len(m.plain), func(name string) bool { _, ok := fromPlain[name]; return ok })
	if tr != nil {
		res.PerLayer = report(len(m.traced), func(string) bool { return true })
		header := map[string]any{"workload": w.name, "seed": c.seed, "reps": len(m.traced), "env": res.Env}
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(c.outDir, w.name+".spans.json"), header); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fail counts operations whose check failed.
func (r *result) fail(names ...string) {
	r.Failed += len(names)
	r.FailedOps = append(r.FailedOps, names...)
}

// note records a check's verdict; one failure anywhere in the run fails the
// check and counts as a failed operation.
func (r *result) note(name string, ok bool, where string) {
	if prev, seen := r.Checks[name]; !seen || prev {
		r.Checks[name] = ok
	}
	if !ok {
		r.fail(name + ":" + where)
	}
}

// measurement is the raw outcome of a run's loop.
type measurement struct {
	inst       instance
	setupTimes []float64
	// base is the warm-up's outcome, which every repetition must reproduce.
	base outcome
	// plain are the untraced timed repetitions; traced, in a -trace run,
	// their traced forms.
	plain, traced []sample
	// phases sums the untraced repetitions' phase wall times.
	phases map[string]float64
}

// measure sets the workload up, warms it up and runs the timed loop,
// counting attempted and failed operations into res.
func measure(c *config, w *workload, tr *tracer, res *result, processStart time.Time) (*measurement, error) {
	n := w.vertices
	if c.vertices > 0 {
		n = c.vertices
	}
	m := &measurement{phases: make(map[string]float64)}

	// Set-up runs several times so that setup_s is a median; only the last
	// round's instance is kept. The first round counts from process start.
	roundStart := processStart
	for i := 1; i <= w.setups; i++ {
		m.inst = nil
		runtime.GC()
		tr.setRep(-i)
		err := tr.span("setup", func() (err error) {
			m.inst, err = w.setup(tr, c, n)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupTimes = append(m.setupTimes, time.Since(roundStart).Seconds())
		roundStart = time.Now()
	}

	// Warm-up: fills the heap and the program's own pools, and fixes the
	// statistics every later repetition must reproduce.
	tr.setRep(0)
	if err := m.inst.rep(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m.base = m.inst.verify(nil)
	if len(m.base.failed) > 0 {
		return nil, fmt.Errorf("warm-up repetition failed its checks: %v", m.base.failed)
	}
	check := func(o outcome, name string, k int) {
		res.Attempted += w.ops
		res.fail(o.failed...)
		res.note(name, o.same(&m.base), repLabel(k))
	}

	loopStart := time.Now()
	for k := 1; ; k++ {
		if c.reps > 0 {
			if k > c.reps {
				break
			}
		} else if k > 1 && time.Since(loopStart).Seconds() >= c.seconds {
			break
		}
		s, err := timed(func() error { return m.inst.rep(nil) })
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", k, err)
		}
		m.plain = append(m.plain, s)
		o := m.inst.verify(nil)
		check(o, "reps_bit_equal", k)
		for name, v := range o.phases {
			m.phases[name] += v
		}
		if tr == nil {
			continue
		}
		// The traced form of the same repetition, then the probes.
		tr.setRep(k)
		s, err = timed(func() error {
			return tr.span("rep", func() error { return m.inst.rep(tr) })
		})
		if err != nil {
			return nil, fmt.Errorf("traced repetition %d: %w", k, err)
		}
		m.traced = append(m.traced, s)
		check(m.inst.verify(tr), "traced_equals_plain", k)
		var probed map[string]bool
		err = tr.span("probe", func() (err error) {
			probed, err = m.inst.probe(tr)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", k, err)
		}
		for name, ok := range probed {
			res.note(name, ok, repLabel(k))
		}
	}
	return m, nil
}

func walls(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall
	}
	return out
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
func (m *measurement) endToEnd() map[string]metricValue {
	var bytes, mallocs []float64
	var wallSum float64
	for _, s := range m.plain {
		bytes = append(bytes, s.bytes/1e6)
		mallocs = append(mallocs, s.mallocs)
		wallSum += s.wall
	}
	reps := len(m.plain)
	values := map[string]float64{
		"setup_s":            median(m.setupTimes),
		"wall_s":             median(walls(m.plain)),
		"edges_per_s":        m.inst.work() * float64(reps) / wallSum,
		"alloc_mb":           median(bytes),
		"allocs":             median(mallocs),
		"virtual_response_s": m.base.virtual.ResponseSeconds,
		"virtual_network_mb": float64(m.base.virtual.NetworkBytes) / 1e6,
		"inner_edge_ratio":   m.base.ier,
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		n := reps
		if d.Name == "setup_s" {
			n = len(m.setupTimes)
		}
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit, Better: d.Better, N: n}
	}
	return out
}

// layers reduces the spans and counters to the per-layer metrics, noting in
// res any counter that did not repeat exactly.
func (m *measurement) layers(tr *tracer, workers int, res *result) map[string]float64 {
	layers := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		kind, name, _ := strings.Cut(d.From, ":")
		switch kind {
		case "span":
			layers[d.Name] = tr.seconds(name)
		case "alloc":
			layers[d.Name] = tr.allocMB(name)
		case "mallocs":
			layers[d.Name] = tr.mallocs(name)
		case "count":
			v, exact := tr.counter(name)
			layers[d.Name] = v
			res.note("counts_repeat", exact, name)
		}
	}
	deriveLayers(layers, tr, workers)
	layers["bench.traced_wall_s"] = median(walls(m.traced))
	layers["bench.trace_overhead"] = median(walls(m.traced)) - median(walls(m.plain))
	return layers
}

func repLabel(rep int) string {
	switch {
	case rep < 0:
		return "setup-" + strconv.Itoa(-rep)
	case rep == 0:
		return "warm-up"
	default:
		return "rep-" + strconv.Itoa(rep)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), or the memory the Go
// runtime obtained from the OS where /proc is not there.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
