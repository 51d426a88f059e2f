package propagation

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digest hashes a run bit for bit. No put is tagged: the sequence of calls
// is fixed by the row, so two runs of one row hash the same fields in the
// same order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}
func (d *digest) i64(x int64)   { d.u64(uint64(x)) }
func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *digest) str(s string)  { d.u64(uint64(len(s))); io.WriteString(d.h, s) }
func (d *digest) sum() string   { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// jobs hashes what the engine will execute: per task, the machine, the CPU
// seconds, the disk bytes and every output edge.
func (d *digest) jobs(jobs []*engine.Job) {
	for _, j := range jobs {
		d.str(j.Name)
		for _, s := range j.Stages {
			d.str(s.Name)
			d.u64(uint64(len(s.Tasks)))
			for _, t := range s.Tasks {
				d.str(t.Name)
				d.i64(int64(t.Machine))
				d.f64(t.Compute)
				d.i64(t.DiskRead)
				d.i64(t.DiskWrite)
				d.u64(uint64(len(t.Outputs)))
				for _, o := range t.Outputs {
					d.i64(int64(o.DstTask))
					d.i64(o.Bytes)
				}
			}
		}
	}
}

// run hashes what a runner-driven driver leaves behind: its metrics and the
// full event stream, which carries every task's duration and every
// transfer's bytes — the planned jobs as the engine saw them.
func (d *digest) run(t *testing.T, m engine.Metrics, rec *trace.Recorder) {
	t.Helper()
	d.f64(m.ResponseSeconds)
	d.f64(m.MachineSeconds)
	d.i64(m.NetworkBytes)
	d.i64(m.DiskBytes)
	d.i64(int64(m.TasksRun))
	d.i64(int64(m.Checkpoints))
	if err := trace.WriteEvents(d.h, nil, rec.Events()); err != nil {
		t.Fatal(err)
	}
}

// goldenProgram is a program plus the hash of its state.
type goldenProgram[V any] struct {
	prog    Program[V]
	virtual int
	put     func(d *digest, v V)
	// delta and eps, when set, add a RunUntilConverged row (recorded under
	// that name; PlanUntilConverged's jobs, run) that stops before
	// goldenConvergeCap.
	delta func(old, new V) float64
	eps   float64
}

func digestState[V any](d *digest, gp goldenProgram[V], st *State[V]) {
	for _, v := range st.Values {
		gp.put(d, v)
	}
	keys := make([]graph.VertexID, 0, len(st.Virtual))
	for k := range st.Virtual {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		d.u64(uint64(k))
		gp.put(d, st.Virtual[k])
	}
}

// rankLike is the scalar program: a float sum, so the digest moves if one
// bag's values arrive in another order.
type rankLike struct{}

func (rankLike) Init(v graph.VertexID) float64 { return 1 / float64(v+3) }
func (rankLike) Transfer(src graph.VertexID, val float64, dst graph.VertexID, emit Emit[float64]) {
	emit(dst, val*(1+float64(src%7)/13))
}
func (rankLike) Combine(_ graph.VertexID, prev float64, values []float64) float64 {
	s := prev / 3
	for _, v := range values {
		s += v
	}
	return s
}
func (rankLike) Bytes(float64) int64 { return 8 }
func (rankLike) Associative() bool   { return true }
func (rankLike) Merge(_ graph.VertexID, values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// rankLag is the share of its new value a vertex already held. The scalar
// program's values grow every iteration; the summed lag falls as the growth
// settles, below 61 at the third iteration on every golden seed.
func rankLag(old, new float64) float64 { return old / new }

// concatProgram is list-valued and associative: Merge and Combine
// concatenate, so a vertex's list spells out the order its bag arrived in.
// Lists are capped so three iterations stay small.
type concatProgram struct{}

const concatCap = 6

func concat(values [][]int64) []int64 {
	var out []int64
	for _, l := range values {
		out = append(out, l...)
	}
	if len(out) > concatCap {
		out = out[:concatCap]
	}
	return out
}

func (concatProgram) Init(v graph.VertexID) []int64 { return []int64{int64(v)} }
func (concatProgram) Transfer(_ graph.VertexID, val []int64, dst graph.VertexID, emit Emit[[]int64]) {
	emit(dst, val)
}
func (concatProgram) Combine(_ graph.VertexID, _ []int64, values [][]int64) []int64 {
	return concat(values)
}
func (concatProgram) Bytes(l []int64) int64                       { return 8 * int64(len(l)) }
func (concatProgram) Associative() bool                           { return true }
func (concatProgram) Merge(_ graph.VertexID, v [][]int64) []int64 { return concat(v) }

// degreeLike is the VDD shape: every vertex reports to one of a few virtual
// vertices through TransferVertex, and also sends along its edges so real
// and virtual bags fill in the same iteration.
type degreeLike struct{ n, buckets int }

func (p degreeLike) Init(v graph.VertexID) float64 { return float64(v%11) + 0.25 }
func (p degreeLike) TransferVertex(v graph.VertexID, val float64, emit Emit[float64]) {
	emit(graph.VertexID(p.n+int(v)%p.buckets), val/7)
}
func (p degreeLike) Transfer(_ graph.VertexID, val float64, dst graph.VertexID, emit Emit[float64]) {
	emit(dst, val/3)
}
func (p degreeLike) Combine(_ graph.VertexID, prev float64, values []float64) float64 {
	s := prev / 5
	for _, v := range values {
		s += v
	}
	return s
}
func (p degreeLike) Bytes(float64) int64 { return 8 }
func (p degreeLike) Associative() bool   { return true }
func (p degreeLike) Merge(_ graph.VertexID, values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// bagProgram is concatProgram without Merge: local combination must leave
// it alone, so it runs the ungrouped log with local propagation on.
type bagProgram struct{ concatProgram }

func (bagProgram) Associative() bool { return false }
func (bagProgram) Merge(graph.VertexID, [][]int64) []int64 {
	panic("Merge called on a non-associative program")
}

// driftProgram is the program whose emission sequence never repeats: what an
// edge does — nothing, one value, two, or a value redirected to a virtual
// vertex — is a hash of the source's current value and the destination, and
// the values change every iteration. TransferVertex reports to a virtual
// vertex under the same kind of hash. Merge folds non-commutatively and Bytes
// depends on the value, so a reordered bag or a byte charged to the wrong
// task moves the digest.
type driftProgram struct{ n, virtual int }

// driftMix is splitmix64's finalizer over the value and a vertex.
func driftMix(val int64, v graph.VertexID) uint64 {
	x := uint64(val) ^ uint64(v)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (p driftProgram) Init(v graph.VertexID) int64 { return int64(v)*7919%10007 + 1 }
func (p driftProgram) TransferVertex(v graph.VertexID, val int64, emit Emit[int64]) {
	if h := driftMix(val, v); p.virtual > 0 && h%4 == 0 {
		emit(graph.VertexID(p.n+int(h>>8%uint64(p.virtual))), val>>2)
	}
}
func (p driftProgram) Transfer(_ graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	h := driftMix(val, dst)
	switch h % 5 {
	case 0:
	case 1:
		emit(dst, val+int64(h>>40))
		emit(dst, val^int64(h>>44))
	case 2:
		if p.virtual > 0 {
			emit(graph.VertexID(p.n+int(h>>8%uint64(p.virtual))), val+1)
			return
		}
		fallthrough
	default:
		emit(dst, val)
	}
}
func (p driftProgram) Combine(_ graph.VertexID, prev int64, values []int64) int64 {
	return prev/3 + p.Merge(0, values)
}
func (p driftProgram) Bytes(v int64) int64 { return 8 + v&7 }
func (p driftProgram) Associative() bool   { return true }
func (p driftProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var h int64
	for _, v := range values {
		h = h*31 + v
	}
	return h & (1<<40 - 1)
}

func putInt(d *digest, v int64) { d.i64(v) }

func putFloat(d *digest, v float64) { d.f64(v) }
func putList(d *digest, l []int64) {
	d.u64(uint64(len(l)))
	for _, x := range l {
		d.i64(x)
	}
}

// goldenDeployment is one seed's graph, partitioning and the two placements
// the optimisation levels of §6.3 pair with (O1/O3: not bandwidth-aware,
// O2/O4: the sketch).
type goldenDeployment struct {
	pg     *storage.PartitionedGraph
	topo   *cluster.Topology
	sketch *partition.Placement
	random *partition.Placement
}

func newGoldenDeployment(t *testing.T, seed int64) *goldenDeployment {
	t.Helper()
	g := graph.Social(graph.DefaultSocial(1536, seed))
	pt, sk := partition.RecursiveBisect(g, 3, partition.Options{Seed: seed})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	return &goldenDeployment{
		pg: pg, topo: topo,
		sketch: partition.SketchPlacement(sk, topo),
		random: partition.RandomPlacement(pt.P, topo, seed),
	}
}

var goldenLevels = []struct {
	name   string
	local  bool
	sketch bool
}{{"O1", false, false}, {"O2", false, true}, {"O3", true, false}, {"O4", true, true}}

var goldenDrivers = []string{"PlanIterations", "RunCascaded", "RunIterationsTree", "RunCheckpointed",
	"RunIterations", "RunUntilConverged", "RunCheckpointedKilled"}

const (
	goldenIters       = 3
	goldenConvergeCap = 6
)

// goldenRow runs one (program, level, driver, seed) cell at the given worker
// count and returns its digest.
func goldenRow[V any](t *testing.T, d *goldenDeployment, gp goldenProgram[V], level int, driver string, workers int) string {
	t.Helper()
	lv := goldenLevels[level]
	pl := d.random
	if lv.sketch {
		pl = d.sketch
	}
	opt := Options{LocalPropagation: lv.local, LocalCombination: lv.local, VirtualVertices: gp.virtual}
	st := NewState(d.pg, gp.prog)
	dg := newDigest()
	if driver == "PlanIterations" {
		jobs, final, err := PlanIterations(engine.NewPool(workers), d.pg, pl, gp.prog, st, opt, goldenIters, "golden")
		if err != nil {
			t.Fatal(err)
		}
		digestState(dg, gp, final)
		dg.jobs(jobs)
		return dg.sum()
	}
	rec := trace.NewRecorder()
	reps := storage.PlaceReplicas(pl, d.topo, 7)
	cfg := engine.Config{Topo: d.topo, Replicas: reps, Workers: workers}
	ckpt := CheckpointConfig{Interval: 2, Replicas: reps, Cascaded: level%2 == 1}
	if driver == "RunCheckpointedKilled" {
		// The clean run times the kill: 90% of the way through, past the
		// checkpoint after iteration 2, inside iteration 3.
		_, clean, err := RunCheckpointed(engine.New(cfg), d.pg, pl, gp.prog, NewState(d.pg, gp.prog), opt, goldenIters, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &fault.Schedule{Kills: []fault.Kill{{Machine: 2, At: 0.9 * clean.ResponseSeconds}}}
		cfg.HeartbeatInterval = clean.ResponseSeconds / 20
	}
	cfg.Trace = rec
	r := engine.New(cfg)
	var (
		final *State[V]
		m     engine.Metrics
		err   error
	)
	switch driver {
	case "RunIterations":
		final, m, err = RunIterations(r, d.pg, pl, gp.prog, st, opt, goldenIters)
	case "RunUntilConverged":
		jobs, planned, perr := PlanUntilConverged(r.Pool(), d.pg, pl, gp.prog, st, opt, goldenConvergeCap, gp.delta, gp.eps)
		final, m, err = runPlan(r, jobs, planned, perr)
	case "RunCascaded":
		final, m, err = RunCascaded(r, d.pg, pl, gp.prog, st, opt, goldenIters, nil)
	case "RunIterationsTree":
		final, m, err = RunIterationsTree(r, d.pg, pl, gp.prog, st, opt, goldenIters)
	case "RunCheckpointed", "RunCheckpointedKilled":
		final, m, err = RunCheckpointed(r, d.pg, pl, gp.prog, st, opt, goldenIters, ckpt)
	}
	if err != nil {
		t.Fatal(err)
	}
	if driver == "RunCheckpointedKilled" && m.Restores != 1 {
		t.Fatalf("%s: %d restores, want the kill to roll back once", driver, m.Restores)
	}
	digestState(dg, gp, final)
	dg.run(t, m, rec)
	return dg.sum()
}

// goldenProgramRows appends one program's rows, asserting each digest is the
// same at 1, 2 and 8 workers before recording it.
func goldenProgramRows[V any](t *testing.T, out *strings.Builder, name string, seed int64, d *goldenDeployment, gp goldenProgram[V]) {
	t.Helper()
	for level := range goldenLevels {
		for _, driver := range goldenDrivers {
			if driver == "RunIterationsTree" && !gp.prog.Associative() {
				continue // tree aggregation rejects it
			}
			if driver == "RunUntilConverged" && gp.delta == nil {
				continue
			}
			want := goldenRow(t, d, gp, level, driver, 1)
			for _, workers := range []int{2, 8} {
				if got := goldenRow(t, d, gp, level, driver, workers); got != want {
					t.Errorf("%s %s %s seed %d: digest at %d workers %s, at 1 worker %s",
						name, goldenLevels[level].name, driver, seed, workers, got, want)
				}
			}
			fmt.Fprintf(out, "%s %s %s %d %s\n", name, goldenLevels[level].name, driver, seed, want)
		}
	}
}

// TestPlanDigestsGolden pins propagation bit for bit: the golden was recorded
// with the serial emission-log merge, so an executor change that reorders one
// bag, moves one byte between two tasks or shifts one event fails here. Rows
// are {scalar, associative list, non-associative list, virtual-vertex, drift}
// programs x O1-O4 x the multi-iteration drivers x three seeds; each row must
// also agree with itself at 1, 2 and 8 workers. -short keeps one seed.
// RunUntilConverged (PlanUntilConverged, then run) covers the scalar program only; RunCheckpointedKilled kills
// a machine after the checkpoint and must restore once.
// The first four emit exactly once per edge; drift is the one whose emission
// sequence differs from one iteration to the next.
func TestPlanDigestsGolden(t *testing.T) {
	const path = "testdata/plan_digests.golden"
	var got strings.Builder
	for _, seed := range []int64{1, 42, 2010} {
		if seed != 1 && testing.Short() && !*update {
			continue
		}
		d := newGoldenDeployment(t, seed)
		n := d.pg.G.NumVertices()
		goldenProgramRows(t, &got, "scalar", seed, d, goldenProgram[float64]{prog: rankLike{}, put: putFloat,
			delta: rankLag, eps: 61})
		goldenProgramRows(t, &got, "list", seed, d, goldenProgram[[]int64]{prog: concatProgram{}, put: putList})
		goldenProgramRows(t, &got, "bag", seed, d, goldenProgram[[]int64]{prog: bagProgram{}, put: putList})
		goldenProgramRows(t, &got, "virtual", seed, d, goldenProgram[float64]{prog: degreeLike{n: n, buckets: 5}, virtual: 5, put: putFloat})
		goldenProgramRows(t, &got, "drift", seed, d, goldenProgram[int64]{prog: driftProgram{n: n, virtual: 7}, virtual: 7, put: putInt})
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantLines[l] = true
	}
	for _, l := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		if !wantLines[l] {
			t.Errorf("digest not in golden: %s", l)
		}
	}
}
