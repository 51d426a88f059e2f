package engine

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config configures a Runner.
type Config struct {
	Topo *cluster.Topology
	// Replicas provides failover targets; required when Faults holds
	// kills.
	Replicas *storage.Replicas
	// HeartbeatInterval is the failure-detection latency of the job
	// manager (Appendix B). Defaults to 1s.
	HeartbeatInterval float64
	// Workers sizes the pool that executes the real Go compute of tasks
	// (Transfer fan-out, Combine folds, Map/Reduce bodies) on host cores.
	// Zero or negative selects GOMAXPROCS; 1 forces serial execution.
	// Results are bit-identical for every value — see Pool.
	Workers int
	// Trace receives one structured event per task start/finish, NIC
	// transfer, stage barrier, failure and retry. Nil disables tracing at
	// zero cost. Every event is emitted from the serial event loop, so the
	// stream is identical for every Workers value (see docs/METRICS.md).
	Trace *trace.Recorder
	// Faults is the run's fault plan — machine kills, degraded links,
	// dropped transfers, machine slowdowns, joins and drains — replayed
	// deterministically from the serial event loop. Nil means none, at
	// zero cost.
	Faults *fault.Schedule
	// Retry governs dropped-transfer detection and exponential backoff.
	// The zero value selects the defaults (1s timeout, 0.25s backoff
	// doubling to an 8s cap, unlimited attempts).
	Retry fault.RetryPolicy
	// Speculate enables MapReduce-style backup tasks for stragglers: once
	// half a stage has committed, a task projected past twice the median
	// gets a copy. Requires Replicas (backups run on replica holders).
	Speculate bool
	// PartBytes is the resident state volume of each partition, indexed by
	// PartID: the bytes a live migration must copy when the partition's
	// home machine drains. Missing or short means zero-cost (instant)
	// migrations. Only consulted when Faults contains drains.
	PartBytes []int64
}

// Runner executes jobs on the simulated cluster. A Runner carries its
// virtual clock and metrics across jobs, so a multi-iteration application
// can run each iteration as a separate job and read cumulative metrics.
type Runner struct {
	cfg     Config
	pool    *Pool
	clock   float64
	metrics Metrics
	dead    map[cluster.MachineID]bool
	kills   []fault.Kill // pending, sorted stably by At
	// busySeconds is each machine's busy time (Appendix B: the job manager
	// records resource utilization).
	busySeconds []float64
	// tr receives structured trace events; nil means tracing is disabled
	// and every emission site reduces to a nil check.
	tr *trace.Recorder
	// Causal-DAG threading (docs/METRICS.md): lastJobEnd is the Seq of the
	// previous job's end (the cause of the next job's begin), failSeq the
	// Seq of each dead machine's failure event (the cause of everything that
	// machine's death enabled), lastFailSeq the most recent failure, and
	// recoveryPending marks that the next job is a rollback reaction whose
	// begin should be caused by that failure instead of the previous job.
	lastJobEnd      int
	failSeq         map[cluster.MachineID]int
	lastFailSeq     int
	recoveryPending bool
	// faults is the transient-fault schedule (nil = fault-free: every
	// query is a nil check), retry the defaulted policy.
	faults *fault.Schedule
	retry  fault.RetryPolicy
	// Elastic membership (see elastic.go). dormant marks provisioned
	// machines whose join has not fired; draining marks machines mid-drain;
	// retired marks cleanly decommissioned machines. home overlays the
	// replica primary as a partition's current location after migration —
	// the shared Replicas is never mutated, so runners at different worker
	// counts stay independent. nicRate caps a machine's NIC line rate
	// (0 = topology rate); joins and drains are the pending elastic events
	// in deterministic (At, Machine) order; drainState tracks each active
	// drain's outstanding migrations.
	dormant    map[cluster.MachineID]bool
	draining   map[cluster.MachineID]bool
	retired    map[cluster.MachineID]bool
	home       map[partition.PartID]cluster.MachineID
	nicRate    []float64
	joins      []fault.MachineJoin
	drains     []fault.MachineDrain
	drainState map[cluster.MachineID]*drainState
	// Cluster-wide execution state, shared by every open stage and kept
	// across stages and jobs (see stage.go): the event queue with its
	// tie-break sequence, the machines' task queues and busy slots, the
	// registry of running task copies, and the NIC free-times. More than
	// one stage can be open over it — that is where concurrent jobs of the
	// job service contend. A machine has one slot: the job manager
	// "dispatches one more task to a slave node when the slave node
	// finishes a task" (Appendix B).
	evq      eventQueue
	seq      int
	queues   [][]taskRef
	running  []int
	attempts []runAttempt
	// egressFree / ingressFree model the NIC as the shared resource: a
	// transfer occupies the sender's egress and the receiver's ingress
	// for bytes/bandwidth(src,dst) seconds. All-to-all bursts therefore
	// serialize at the NICs (incast), as on a real cluster.
	egressFree  []float64
	ingressFree []float64
}

// New creates a Runner.
func New(cfg Config) *Runner {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 1.0
	}
	nm := cfg.Topo.NumMachines()
	r := &Runner{
		cfg: cfg, pool: NewPool(cfg.Workers), tr: cfg.Trace,
		dead:        make(map[cluster.MachineID]bool),
		faults:      cfg.Faults,
		retry:       cfg.Retry.WithDefaults(),
		lastJobEnd:  trace.None,
		failSeq:     make(map[cluster.MachineID]int),
		lastFailSeq: trace.None,
		dormant:     make(map[cluster.MachineID]bool),
		draining:    make(map[cluster.MachineID]bool),
		retired:     make(map[cluster.MachineID]bool),
		home:        make(map[partition.PartID]cluster.MachineID),
		nicRate:     make([]float64, nm),
		drainState:  make(map[cluster.MachineID]*drainState),
		busySeconds: make([]float64, nm),
		queues:      make([][]taskRef, nm),
		running:     make([]int, nm),
		egressFree:  make([]float64, nm),
		ingressFree: make([]float64, nm),
	}
	if cfg.Faults != nil {
		// Equal-time kills keep their plan order: it is the order their
		// events reach the stream.
		r.kills = slices.Clone(cfg.Faults.Kills)
		slices.SortStableFunc(r.kills, func(a, b fault.Kill) int { return cmp.Compare(a.At, b.At) })
		// Join targets start dormant; their NIC rate cap is in force from
		// the moment they go live — and throughout for a client that places
		// stages itself (StageSpec.Place) and so never waits for the join.
		for _, j := range cfg.Faults.Joins {
			if int(j.Machine) >= 0 && int(j.Machine) < len(r.nicRate) {
				r.dormant[j.Machine] = true
				r.nicRate[j.Machine] = j.NICs
			}
		}
		r.joins = cfg.Faults.SortedJoins()
		r.drains = cfg.Faults.SortedDrains()
	}
	return r
}

// Pool returns the worker pool that executes task compute bodies.
func (r *Runner) Pool() *Pool { return r.pool }

// Workers reports the pool size the runner executes compute with.
func (r *Runner) Workers() int { return r.pool.Workers() }

// Metrics returns the cumulative metrics of all jobs run so far.
func (r *Runner) Metrics() Metrics {
	m := r.metrics
	m.ResponseSeconds = r.clock
	return m
}

// MachineUtilization reports each machine's busy time divided by the total
// elapsed virtual time across all jobs run so far (the job manager "records
// resource utilization", Appendix B). Dead machines show the utilization
// they accumulated before failing.
func (r *Runner) MachineUtilization() []float64 {
	out := make([]float64, r.cfg.Topo.NumMachines())
	if r.clock <= 0 {
		return out
	}
	for m, b := range r.busySeconds {
		out[m] = b / r.clock
	}
	return out
}

// NumMachines reports the size of the underlying cluster.
func (r *Runner) NumMachines() int { return r.cfg.Topo.NumMachines() }

// Deaths reports how many machines have died so far. Multi-iteration
// drivers use the delta across an iteration to detect that state stored on
// a now-dead machine was lost and a checkpoint rollback is needed.
func (r *Runner) Deaths() int { return len(r.dead) }

// NoteCheckpoint records a committed iteration checkpoint on the runner's
// metrics and trace stream. The checkpoint's I/O cost is charged by the
// checkpoint job itself; this marks the commit point.
func (r *Runner) NoteCheckpoint(job string, bytes int64) {
	r.metrics.Checkpoints++
	r.tr.Emit(trace.Event{Kind: trace.KindCheckpoint, Job: job, Cause: r.lastJobEnd,
		Machine: trace.None, Dst: trace.None, Part: trace.None,
		Bytes: bytes, Time: r.clock})
}

// NoteRestore records a checkpoint rollback (a machine death invalidated
// iterations since the last checkpoint).
func (r *Runner) NoteRestore(job string, bytes int64) {
	r.metrics.Restores++
	r.tr.Emit(trace.Event{Kind: trace.KindRestore, Job: job, Cause: r.lastJobEnd,
		Machine: trace.None, Dst: trace.None, Part: trace.None,
		Bytes: bytes, Time: r.clock})
}

// MarkNextJobRecovery declares that the next Run is a rollback reaction to
// the most recent machine failure (a restore job): its job-begin event is
// caused by that failure instead of the previous job's end, so the causal
// DAG shows the failure — not normal job chaining — driving the replay.
func (r *Runner) MarkNextJobRecovery() { r.recoveryPending = true }

// ValidateKills rejects a kill plan the replicas cannot survive: kills
// without replicas to fail over to, or kills of every replica of some
// partition. The kills themselves are Schedule.Validate's to check.
func ValidateKills(s *fault.Schedule, reps *storage.Replicas) error {
	if s == nil || len(s.Kills) == 0 {
		return nil
	}
	if reps == nil {
		return fmt.Errorf("engine: %d kill(s) configured but no replicas to fail over to", len(s.Kills))
	}
	killed := make(map[cluster.MachineID]bool, len(s.Kills))
	for _, k := range s.Kills {
		killed[k.Machine] = true
	}
	for p, ms := range reps.Machines {
		if !slices.ContainsFunc(ms, func(m cluster.MachineID) bool { return !killed[m] }) {
			return fmt.Errorf("engine: the kill plan kills every replica of partition %d (machines %v)", p, ms)
		}
	}
	return nil
}

// Topology exposes the simulated cluster the runner executes on.
func (r *Runner) Topology() *cluster.Topology { return r.cfg.Topo }

// Run executes the job, advancing the runner's clock, and returns the
// metrics of this job alone. It is the stage executor's single-job client
// (stage.go): each stage is opened on the runner's own placement and the
// loop stepped until its barrier closes.
func (r *Runner) Run(job *Job) (Metrics, error) {
	if err := job.Validate(r.cfg.Topo); err != nil {
		return Metrics{}, err
	}
	if len(r.kills) > 0 && r.cfg.Replicas == nil {
		return Metrics{}, fmt.Errorf("engine: kills configured without replicas")
	}
	if len(r.drains) > 0 && r.cfg.Replicas == nil {
		return Metrics{}, fmt.Errorf("engine: drains configured without replicas (migration needs partition homes)")
	}
	before := r.metrics
	start := r.clock
	// A job begins because the previous one ended — except a rollback
	// replay, which begins because a machine died.
	cause := r.lastJobEnd
	if r.recoveryPending && r.lastFailSeq != trace.None {
		cause = r.lastFailSeq
	}
	r.recoveryPending = false
	if len(job.Stages) == 0 {
		// No stage to carry the job's markers.
		sr := &StageRun{r: r, label: job.Name}
		cause = sr.mark(trace.KindJobEnd, sr.mark(trace.KindJobBegin, cause, r.clock), r.clock)
	}
	var prev *StageRun
	for si := range job.Stages {
		sr, err := r.Open(StageSpec{Job: job, Index: si, Label: job.Name, At: r.clock, Cause: cause,
			Metrics: &r.metrics, prev: prev})
		for err == nil && !sr.closed {
			if _, pending := r.NextEvent(); !pending {
				err = fmt.Errorf("engine: stage %q deadlocked with %d tasks and %d transfers pending", sr.name, sr.remaining, sr.inflight)
			} else {
				_, err = r.Step()
			}
		}
		if err != nil {
			if sr != nil {
				// Leave the shared state clean for the next job.
				r.cancel(sr)
			}
			return Metrics{}, err
		}
		r.clock = sr.end
		cause, prev = sr.endSeq, sr
	}
	r.lastJobEnd = cause
	m := r.metrics
	m.ResponseSeconds = r.clock - start
	m.MachineSeconds -= before.MachineSeconds
	m.NetworkBytes -= before.NetworkBytes
	m.DiskBytes -= before.DiskBytes
	m.TasksRun -= before.TasksRun
	m.Recoveries -= before.Recoveries
	m.TransferDrops -= before.TransferDrops
	m.TransferRetries -= before.TransferRetries
	m.Speculations -= before.Speculations
	m.Checkpoints -= before.Checkpoints
	m.Restores -= before.Restores
	m.Joins -= before.Joins
	m.Drains -= before.Drains
	m.Migrations -= before.Migrations
	m.MigrationBytes -= before.MigrationBytes
	return m, nil
}

// RunJobs runs a plan's jobs in order and returns their summed metrics. It
// stops at the first job that fails, returning the metrics of those before it.
func (r *Runner) RunJobs(jobs []*Job) (Metrics, error) {
	var total Metrics
	for _, job := range jobs {
		m, err := r.Run(job)
		if err != nil {
			return total, err
		}
		total.Add(m)
	}
	return total, nil
}
