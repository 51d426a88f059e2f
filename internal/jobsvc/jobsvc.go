// Package jobsvc is Surfer's job scheduler (Figure 1) as a multi-tenant
// service: a submission queue over the simulated cluster that runs many jobs
// *concurrently* in one virtual clock, so their transfers contend on the
// same per-machine NICs and links — the cloud regime of §1–2 where network
// bandwidth is the shared, fought-over resource.
//
// A job arrives at its spec's submit time, waits in the queue for a run
// slot (Config.Concurrency bounds how many jobs hold the cluster at once),
// and then executes its pre-planned engine jobs stage by stage. Scheduling
// decisions happen only at arrivals and stage barriers — a running stage is
// never torn down — which keeps preemption cheap and the determinism
// argument simple. Three policies order the queue: FIFO (submission order,
// run to completion), Fair (CFS-style: the tenant with the least delivered
// machine-seconds runs next, so a heavy tenant is preempted at barriers
// while light tenants catch up), and Priority (strict: a higher-priority
// arrival preempts lower-priority jobs at their next barrier). Admission
// control (Config.QueueLimit) rejects arrivals when the queue is over
// budget, deterministically.
//
// The service simulates nothing itself: it is a policy client of the
// engine's stage executor (engine.Runner.Open / NextEvent / Step / Load),
// the same one Runner.Run drives for a single job. The engine owns how a
// task occupies a slot, how a transfer occupies two NICs, how a drop is
// detected and retried and how a stage barrier finds its binding event; the
// service owns arrivals, admission, ranking, barrier preemption, rerouting
// around draining or not-yet-joined machines, and the per-job records.
//
// Determinism contract: arrivals and engine events interleave in one serial
// loop in virtual time, an arrival resolving before an engine event of the
// same instant — the worker pool parallelism of the engine only ever runs
// semantic *planning* compute (see propagation.PlanIterations), never this
// loop — so per-job results, latencies and the trace stream are
// bit-identical for every worker count, with or without a fault schedule.
// Every scheduler decision is traced (job-queued / job-admitted /
// job-preempted / job-resumed / job-rejected) with causal edges, so
// surfer-analyze can attribute makespan to queueing (the queued-preempted
// blame category).
package jobsvc

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Policy selects the queue-ordering discipline.
type Policy int

const (
	// FIFO runs jobs in submission order, to completion (no preemption).
	FIFO Policy = iota
	// Fair is CFS-style fair sharing: each tenant accrues virtual runtime
	// (delivered machine-seconds); the runnable job of the least-served
	// tenant wins every barrier. New tenants start at the minimum live
	// vruntime, so they get service promptly without starving incumbents.
	Fair
	// Priority is strict priority (higher Spec.Priority first, ties by
	// submission order) with preemption at stage barriers.
	Priority
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists every policy in report order.
var Policies = []Policy{FIFO, Fair, Priority}

// ParsePolicy resolves a policy name ("fifo", "fair", "priority").
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("jobsvc: unknown policy %q (want fifo, fair or priority)", s)
}

// Config configures one service run.
type Config struct {
	Topo   *cluster.Topology
	Policy Policy
	// Concurrency is how many jobs may hold the cluster (have an active
	// stage) at once. <= 0 selects 2.
	Concurrency int
	// QueueLimit bounds the jobs waiting for admission: an arrival that
	// finds QueueLimit jobs already queued is rejected. 0 = unlimited.
	QueueLimit int
	// Trace receives the event stream; nil disables tracing.
	Trace *trace.Recorder
	// Faults injects transient link faults and machine slowdowns shared by
	// every job; its joins and drains steer placement at barriers (tasks
	// avoid machines that are not accepting) and a join's NIC rate cap
	// applies to every transfer touching the machine. It may not kill: the
	// service places its stages itself, so the engine arms no death for
	// them. Retry tunes dropped-transfer recovery.
	Faults *fault.Schedule
	Retry  fault.RetryPolicy
}

// Job is one unit of submission: a spec plus its pre-planned engine jobs.
// Plans are pure functions of graph, program and placement (see
// propagation.PlanIterations), so planning once and replaying under any
// policy yields identical per-job results.
type Job struct {
	Spec JobSpec
	Plan []*engine.Job
}

// Record is the service's account of one submitted job.
type Record struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Submitted, Admitted and Finished are virtual times; Admitted and
	// Finished are zero for rejected jobs.
	Submitted float64 `json:"submitted"`
	Admitted  float64 `json:"admitted"`
	Finished  float64 `json:"finished"`
	// Rejected reports the job was refused by admission control.
	Rejected bool `json:"rejected,omitempty"`
	// Preemptions counts barrier preemptions the job suffered.
	Preemptions int `json:"preemptions,omitempty"`
	// Resource accounting over the job's whole plan.
	MachineSeconds  float64 `json:"machine_seconds"`
	NetworkBytes    int64   `json:"network_bytes"`
	DiskBytes       int64   `json:"disk_bytes"`
	TasksRun        int     `json:"tasks_run"`
	TransferDrops   int     `json:"transfer_drops,omitempty"`
	TransferRetries int     `json:"transfer_retries,omitempty"`
}

// Latency is the submit→finish response time (0 for rejected jobs).
func (r Record) Latency() float64 {
	if r.Rejected {
		return 0
	}
	return r.Finished - r.Submitted
}

// WaitSeconds is the submit→admit queueing delay (0 for rejected jobs).
func (r Record) WaitSeconds() float64 {
	if r.Rejected {
		return 0
	}
	return r.Admitted - r.Submitted
}

// Run executes the workload under the config's policy and returns one
// record per job, in arrival order (ties by input order).
func Run(cfg Config, jobs []Job) ([]Record, error) {
	s, err := newService(cfg, jobs)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// jobState is a submitted job's lifecycle position.
type jobState int

const (
	jsQueued  jobState = iota
	jsActive           // holds a run slot, stage in flight
	jsBarrier          // between stages, still holding its candidacy this instant
	jsPreempted
	jsDone
	jsRejected
)

// jobRun is the service's mutable state for one submitted job.
type jobRun struct {
	job   Job
	idx   int // arrival order
	state jobState
	// planIdx/stageIdx locate the next (or running) stage.
	planIdx  int
	stageIdx int
	// metrics is the job's resource account, accumulated by the engine in
	// event order over every stage of the plan.
	metrics engine.Metrics
	// Trace threading.
	queuedSeq  int
	preemptSeq int
	nextCause  int // cause of the job's next begin/stage-begin
	rec        Record
}

func (jr *jobRun) id() string     { return jr.job.Spec.ID }
func (jr *jobRun) tenant() string { return jr.job.Spec.Tenant }

// curPlan returns the engine job the next/running stage belongs to.
func (jr *jobRun) curPlan() *engine.Job { return jr.job.Plan[jr.planIdx] }

// service is the multi-job scheduler over one engine.Runner. Everything
// here runs on the caller's goroutine — the serial loop is the determinism
// anchor.
type service struct {
	cfg Config
	tr  *trace.Recorder
	// eng executes the stages: task slots, NICs, drops and retries span
	// jobs there, which is the whole point — concurrent tenants contend.
	eng *engine.Runner

	jobs      []*jobRun // arrival order
	queued    []*jobRun // waiting for admission, arrival order
	preempted []*jobRun // preemption order
	// open maps each stage in flight to the job holding a run slot for it.
	open map[*engine.StageRun]*jobRun

	// vruntime is each tenant's fair-share clock: delivered machine-seconds.
	vruntime map[string]float64

	// lastQueuedSeq chains arrival events causally (first arrival is root).
	lastQueuedSeq int

	err error
}

func newService(cfg Config, jobs []Job) (*service, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("jobsvc: config without a topology")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if err := cfg.Faults.Validate(cfg.Topo.NumMachines()); err != nil {
		return nil, err
	}
	if cfg.Faults != nil && len(cfg.Faults.Kills) > 0 {
		return nil, fmt.Errorf("jobsvc: the schedule kills %d machine(s); the job service handles transient faults only", len(cfg.Faults.Kills))
	}
	seen := make(map[string]bool, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if j.Spec.ID == "" {
			return nil, fmt.Errorf("jobsvc: job %d has no ID", i)
		}
		if seen[j.Spec.ID] {
			return nil, fmt.Errorf("jobsvc: duplicate job ID %q", j.Spec.ID)
		}
		seen[j.Spec.ID] = true
		if j.Spec.Tenant == "" {
			return nil, fmt.Errorf("jobsvc: job %q has no tenant", j.Spec.ID)
		}
		if j.Spec.Submit < 0 {
			return nil, fmt.Errorf("jobsvc: job %q submits at negative time %g", j.Spec.ID, j.Spec.Submit)
		}
		if len(j.Plan) == 0 {
			return nil, fmt.Errorf("jobsvc: job %q has an empty plan", j.Spec.ID)
		}
		for _, pj := range j.Plan {
			if err := pj.Validate(cfg.Topo); err != nil {
				return nil, fmt.Errorf("jobsvc: job %q: %w", j.Spec.ID, err)
			}
			for si, st := range pj.Stages {
				if len(st.Tasks) == 0 {
					return nil, fmt.Errorf("jobsvc: job %q plan %q stage %d has no tasks", j.Spec.ID, pj.Name, si)
				}
			}
		}
	}
	s := &service{
		cfg: cfg,
		tr:  cfg.Trace,
		// The runner's pool is never used: plans arrive computed.
		eng: engine.New(engine.Config{Topo: cfg.Topo, Workers: 1,
			Trace: cfg.Trace, Faults: cfg.Faults, Retry: cfg.Retry}),
		open:          make(map[*engine.StageRun]*jobRun),
		vruntime:      make(map[string]float64),
		lastQueuedSeq: trace.None,
	}
	// Arrival order: submit time, ties by input order (stable).
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Spec.Submit < jobs[order[b]].Spec.Submit
	})
	for idx, ji := range order {
		jr := &jobRun{job: jobs[ji], idx: idx, nextCause: trace.None}
		jr.rec = Record{
			ID:       jr.job.Spec.ID,
			Tenant:   jr.job.Spec.Tenant,
			Priority: jr.job.Spec.Priority,
		}
		s.jobs = append(s.jobs, jr)
	}
	return s, nil
}

// run interleaves the service's arrivals with the engine's events in
// virtual-time order. At equal times the arrival resolves first, so a
// same-instant arrival is visible to the schedule pass a barrier triggers.
func (s *service) run() ([]Record, error) {
	arrivals := s.jobs
	for s.err == nil {
		at, pending := s.eng.NextEvent()
		if len(arrivals) > 0 && (!pending || arrivals[0].job.Spec.Submit <= at) {
			s.onArrival(arrivals[0])
			arrivals = arrivals[1:]
			continue
		}
		if !pending {
			break
		}
		closed, err := s.eng.Step()
		if err != nil {
			s.err = err
		} else if closed != nil {
			s.finishStage(closed)
		}
	}
	if s.err != nil {
		return nil, fmt.Errorf("jobsvc: %w", s.err)
	}
	recs := make([]Record, len(s.jobs))
	for i, jr := range s.jobs {
		if jr.state != jsDone && jr.state != jsRejected {
			return nil, fmt.Errorf("jobsvc: job %q stalled in state %d with no events pending", jr.id(), jr.state)
		}
		recs[i] = jr.rec
	}
	return recs, nil
}

// emit records one of the service's scheduling events (job-queued,
// job-admitted, job-preempted, job-resumed, job-rejected) about jr.
// Everything else in the stream is the engine's.
func (s *service) emit(kind trace.EventKind, jr *jobRun, cause int, at float64) int {
	return s.tr.Emit(trace.Event{Kind: kind, Job: jr.id(), Tenant: jr.tenant(), Cause: cause,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: at})
}

// onArrival queues (or rejects) an arriving job and runs a schedule pass.
func (s *service) onArrival(jr *jobRun) {
	at := jr.job.Spec.Submit
	jr.rec.Submitted = at
	jr.queuedSeq = s.emit(trace.KindJobQueued, jr, s.lastQueuedSeq, at)
	s.lastQueuedSeq = jr.queuedSeq
	if s.cfg.QueueLimit > 0 && len(s.queued) >= s.cfg.QueueLimit {
		s.emit(trace.KindJobRejected, jr, jr.queuedSeq, at)
		jr.state = jsRejected
		jr.rec.Rejected = true
		return
	}
	jr.state = jsQueued
	// Fair-share placement: a tenant's first live job starts its vruntime
	// at the minimum over tenants with unfinished jobs, so newcomers
	// neither monopolize (no zero debt to pay off) nor starve.
	if _, known := s.vruntime[jr.tenant()]; !known {
		s.vruntime[jr.tenant()] = s.minLiveVruntime()
	}
	s.queued = append(s.queued, jr)
	s.schedule(at, nil)
}

// minLiveVruntime scans jobs (a deterministic slice, never the map) for the
// smallest vruntime among tenants that still have unfinished jobs.
func (s *service) minLiveVruntime() float64 {
	min, found := 0.0, false
	for _, jr := range s.jobs {
		if jr.state == jsDone || jr.state == jsRejected {
			continue
		}
		v, known := s.vruntime[jr.tenant()]
		if !known {
			continue
		}
		if !found || v < min {
			min, found = v, true
		}
	}
	return min
}

// rankLess orders schedulable candidates under the policy. Lower ranks run
// first; ties always fall back to arrival order, which is unique.
func (s *service) rankLess(a, b *jobRun) bool {
	switch s.cfg.Policy {
	case Fair:
		va, vb := s.vruntime[a.tenant()], s.vruntime[b.tenant()]
		if va != vb {
			return va < vb
		}
	case Priority:
		if a.job.Spec.Priority != b.job.Spec.Priority {
			return a.job.Spec.Priority > b.job.Spec.Priority
		}
	default:
		// FIFO: jobs already admitted (barrier/preempted) outrank queued
		// ones, so admitted jobs run to completion; both classes order by
		// arrival.
		ca, cb := a.state == jsQueued, b.state == jsQueued
		if ca != cb {
			return cb
		}
	}
	return a.idx < b.idx
}

// schedule is the only place run slots change hands. It runs at arrivals,
// stage barriers and job completions; barrier (if non-nil) is a job that
// just finished a stage and competes to continue. Candidates are ranked
// under the policy and granted free slots; a losing barrier job is
// preempted.
func (s *service) schedule(now float64, barrier *jobRun) {
	cands := make([]*jobRun, 0, 1+len(s.preempted)+len(s.queued))
	if barrier != nil {
		cands = append(cands, barrier)
	}
	cands = append(cands, s.preempted...)
	cands = append(cands, s.queued...)
	sort.SliceStable(cands, func(i, j int) bool { return s.rankLess(cands[i], cands[j]) })
	free := s.cfg.Concurrency - len(s.open)
	if free > len(cands) {
		free = len(cands)
	}
	for _, jr := range cands[:free] {
		s.grant(jr, now)
	}
	if barrier != nil && barrier.state == jsBarrier {
		// The barrier job lost its slot: preempt at the barrier.
		barrier.preemptSeq = s.emit(trace.KindJobPreempted, barrier, barrier.nextCause, now)
		barrier.state = jsPreempted
		barrier.rec.Preemptions++
		s.preempted = append(s.preempted, barrier)
	}
}

// grant gives jr a run slot and has the engine open its next stage.
func (s *service) grant(jr *jobRun, now float64) {
	switch jr.state {
	case jsQueued:
		s.queued = removeJob(s.queued, jr)
		jr.nextCause = s.emit(trace.KindJobAdmitted, jr, jr.queuedSeq, now)
		jr.rec.Admitted = now
	case jsPreempted:
		s.preempted = removeJob(s.preempted, jr)
		jr.nextCause = s.emit(trace.KindJobResumed, jr, jr.preemptSeq, now)
	case jsBarrier:
		// Continuing at its own barrier; nextCause is the stage/job end.
	default:
		panic(fmt.Sprintf("jobsvc: granting job %q in state %d", jr.id(), jr.state))
	}
	jr.state = jsActive
	// The trace label is the spec ID plus the plan-job name, unique across
	// tenants even when two jobs run the same app.
	sr, err := s.eng.Open(engine.StageSpec{
		Job: jr.curPlan(), Index: jr.stageIdx,
		Label: jr.id() + "/" + jr.curPlan().Name, Tenant: jr.tenant(),
		At: now, Cause: jr.nextCause, Metrics: &jr.metrics,
		Place: func(t *engine.Task) (cluster.MachineID, error) { return s.place(t, now), nil },
	})
	if err != nil {
		s.err = err
		return
	}
	s.open[sr] = jr
}

func removeJob(list []*jobRun, jr *jobRun) []*jobRun {
	for i, x := range list {
		if x == jr {
			return append(list[:i], list[i+1:]...)
		}
	}
	panic("jobsvc: job missing from its scheduler list")
}

// place keeps a task on its pinned machine unless elastic membership says
// otherwise: a machine that is draining (or not yet joined) at this barrier
// stops accepting new tasks, and its work is rerouted to the accepting
// machine with the least pending work (queued + running, ties to the lowest
// machine ID). Running tasks are untouched; barriers are the only points
// where assignment decisions happen. When no machine accepts, the pin is
// kept.
func (s *service) place(t *engine.Task, now float64) cluster.MachineID {
	if s.cfg.Faults.AcceptingAt(t.Machine, now) {
		return t.Machine
	}
	best, bestLoad := t.Machine, -1
	for i := 0; i < s.cfg.Topo.NumMachines(); i++ {
		m := cluster.MachineID(i)
		if !s.cfg.Faults.AcceptingAt(m, now) {
			continue
		}
		if load := s.eng.Load(m); bestLoad < 0 || load < bestLoad {
			best, bestLoad = m, load
		}
	}
	return best
}

// finishStage reacts to a closed barrier: accrues fair-share vruntime,
// releases the run slot and runs a schedule pass with the job competing to
// continue (or completing it).
func (s *service) finishStage(sr *engine.StageRun) {
	jr := s.open[sr]
	delete(s.open, sr)
	now := sr.End()
	s.vruntime[jr.tenant()] += sr.MachineSeconds()
	jr.nextCause = sr.EndSeq()
	jr.stageIdx++
	if jr.stageIdx >= len(jr.curPlan().Stages) {
		jr.planIdx++
		jr.stageIdx = 0
		if jr.planIdx >= len(jr.job.Plan) {
			jr.state = jsDone
			jr.rec.Finished = now
			jr.rec.MachineSeconds = jr.metrics.MachineSeconds
			jr.rec.NetworkBytes = jr.metrics.NetworkBytes
			jr.rec.DiskBytes = jr.metrics.DiskBytes
			jr.rec.TasksRun = jr.metrics.TasksRun
			jr.rec.TransferDrops = jr.metrics.TransferDrops
			jr.rec.TransferRetries = jr.metrics.TransferRetries
			s.schedule(now, nil)
			return
		}
	}
	jr.state = jsBarrier
	s.schedule(now, jr)
}
