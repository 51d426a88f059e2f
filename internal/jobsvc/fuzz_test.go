package jobsvc

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/analyze"
	"repro/internal/trace"
)

// FuzzJobService drives the service with fuzzer-chosen workload shapes and
// service configs and checks the properties that must hold for *every*
// input: two runs are byte-identical, records account consistently, and
// the analyzer's blame sums to makespan whenever at least one job finished.
func FuzzJobService(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(2), uint8(1), uint8(0), false)
	f.Add(int64(7), uint8(1), uint8(6), uint8(3), uint8(2), uint8(2), true)
	f.Add(int64(21), uint8(2), uint8(5), uint8(1), uint8(1), uint8(1), false)
	f.Add(int64(42), uint8(1), uint8(8), uint8(4), uint8(3), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, policy, nJobs, nTenants, conc, qlimit uint8, faults bool) {
		pol := Policies[int(policy)%len(Policies)]
		n := 1 + int(nJobs)%10
		tenants := 1 + int(nTenants)%4
		cfg := Config{
			Topo:        testTopo(),
			Policy:      pol,
			Concurrency: 1 + int(conc)%3,
			QueueLimit:  int(qlimit) % 5, // 0 = unlimited
		}
		if faults {
			cfg.Faults = testFaults(t)
		}
		run := func() ([]Record, []byte) {
			rec := trace.NewRecorder()
			c := cfg
			c.Trace = rec
			recs, err := Run(c, synthJobs(n, tenants, seed))
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			var buf bytes.Buffer
			if err := trace.WriteEvents(&buf, nil, rec.Events()); err != nil {
				t.Fatal(err)
			}
			return recs, buf.Bytes()
		}
		recs1, stream1 := run()
		recs2, stream2 := run()
		if !bytes.Equal(stream1, stream2) {
			t.Fatal("two identical runs produced different trace streams")
		}
		if len(recs1) != len(recs2) {
			t.Fatalf("record counts differ: %d vs %d", len(recs1), len(recs2))
		}
		finished := 0
		for i, r := range recs1 {
			if r != recs2[i] {
				t.Fatalf("record %d differs between runs: %+v vs %+v", i, r, recs2[i])
			}
			if r.Rejected {
				if r.Finished != 0 || r.TasksRun != 0 || r.Preemptions != 0 {
					t.Fatalf("rejected job %s has execution state: %+v", r.ID, r)
				}
				continue
			}
			finished++
			if r.Admitted < r.Submitted || r.Finished <= r.Admitted {
				t.Fatalf("job %s times out of order: %+v", r.ID, r)
			}
			if r.TasksRun == 0 || r.MachineSeconds <= 0 {
				t.Fatalf("job %s finished without work: %+v", r.ID, r)
			}
		}
		if finished == 0 {
			return // every job bounced off the queue limit; nothing to analyze
		}
		stream, err := trace.ReadEvents(bytes.NewReader(stream1))
		if err != nil {
			t.Fatalf("service emitted an unreadable stream: %v", err)
		}
		rep, err := analyze.Analyze(stream.Events, testTopo())
		if err != nil {
			t.Fatalf("analyze rejected the stream: %v", err)
		}
		var sum float64
		for _, c := range analyze.Categories {
			sum += rep.Blame[c]
		}
		if diff := math.Abs(sum - rep.Makespan); diff > 1e-9*math.Max(1, rep.Makespan) {
			t.Fatalf("blame sums to %g, makespan %g", sum, rep.Makespan)
		}
	})
}

// FuzzReadWorkload feeds arbitrary bytes to the jobs-file reader behind
// surfer-submit -jobs: it must return an error rather than panic, and a file
// it accepts must write back through WriteWorkload and re-read to the same
// bytes. Bytes, not DeepEqual: an absent "jobs" key reads as nil and
// re-reads as empty.
func FuzzReadWorkload(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteWorkload(&seed, GenerateWorkload(GenConfig{Jobs: 4, Tenants: 2, MaxPriority: 2, Seed: 7})); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := ReadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteWorkload(&first, wl); err != nil {
			t.Fatalf("accepted workload does not write: %v", err)
		}
		again, err := ReadWorkload(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written workload does not re-read: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteWorkload(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write → read → write changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
