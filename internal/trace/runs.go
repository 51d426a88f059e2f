package trace

// Runs is the stream's one answer to "whose event is this": the job and
// stage runs its begin events open, and the runs each event belongs to.
// Every fold that files events by job or stage renders it.
type Runs struct {
	// Jobs and Stages list the runs in the order their begin events come.
	Jobs, Stages []Run
	// Job and Stage give each event's job run and stage run as indexes into
	// Jobs and Stages, -1 when the run its names point at never began. A
	// begin event belongs to the run it opens, so a stage run's job run is
	// its stage-begin's.
	Job, Stage []int32
}

// Run is one job or stage run: from its begin event to the end event that
// closed it. A run no end closed has Ended false and End equal to Begin.
type Run struct {
	Name       string
	Begin, End float64
	Ended      bool
}

// Label resolves every event to its runs by one rule: an event belongs to
// the latest-begun job run its own Job names — never to whichever job began
// last, since a job-service stream interleaves concurrent jobs — and to that
// run's latest-begun stage run its Stage names. A job-end or stage-end
// closes the run it resolves to if that run is still open.
func Label(events []Event) *Runs {
	r := &Runs{Job: make([]int32, len(events)), Stage: make([]int32, len(events))}
	type stageKey struct {
		job  int32
		name string
	}
	// Each map holds its latest-begun run's index plus one, so a name never
	// begun reads -1.
	jobs := make(map[string]int32)     // by job name
	stages := make(map[stageKey]int32) // by job run and stage name
	// Consecutive events mostly name the same job and stage: the previous
	// event's names are checked before the maps. A begin resets the check.
	var lastJob, lastStage string
	j, s, same := int32(-1), int32(-1), false
	for i := range events {
		ev := &events[i]
		if !same || ev.Job != lastJob || ev.Stage != lastStage {
			j = jobs[ev.Job] - 1
			s = stages[stageKey{j, ev.Stage}] - 1
			lastJob, lastStage, same = ev.Job, ev.Stage, true
		}
		switch ev.Kind {
		case KindJobBegin:
			j, s, same = int32(len(r.Jobs)), -1, false
			jobs[ev.Job] = j + 1
			r.Jobs = append(r.Jobs, Run{Name: ev.Job, Begin: ev.Time, End: ev.Time})
		case KindStageBegin:
			s, same = int32(len(r.Stages)), false
			stages[stageKey{j, ev.Stage}] = s + 1
			r.Stages = append(r.Stages, Run{Name: ev.Stage, Begin: ev.Time, End: ev.Time})
		case KindJobEnd:
			if j >= 0 && !r.Jobs[j].Ended {
				r.Jobs[j].End, r.Jobs[j].Ended = ev.Time, true
			}
		case KindStageEnd:
			if s >= 0 && !r.Stages[s].Ended {
				r.Stages[s].End, r.Stages[s].Ended = ev.Time, true
			}
		}
		r.Job[i], r.Stage[i] = j, s
	}
	return r
}
