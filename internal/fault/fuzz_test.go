package fault

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
)

// FuzzLoad: Load never panics. On a schedule it accepts, MaxMachine,
// Validate and RunInputs never panic either, and the schedule marshals back
// to a file that loads to the same bytes. Bytes, not DeepEqual: an empty
// list decodes as non-nil and is omitted on the way back.
//
//	go test -run '^$' -fuzz FuzzLoad -fuzztime 30s ./internal/fault
func FuzzLoad(f *testing.F) {
	for _, doc := range []string{
		faultDoc, elasticDoc, "{}", `{"kills": [], "drops": []}`,
		// ci.sh's elastic smoke and its six-key chaos file.
		`{
		  "joins":  [{"machine": 8, "at": 0.0005, "nics": 62.5e6}],
		  "drains": [{"machine": 3, "at": 0.001, "deadline": 1.0}]
		}`,
		`{
		  "kills":     [{"machine": 5, "at": 0.0015}],
		  "links":     [{"src": 0, "dst": 3, "from": 0.0005, "until": 0.002, "factor": 4}],
		  "drops":     [{"src": 1, "dst": 2, "from": 0.0002, "until": 0.0008}],
		  "slowdowns": [{"machine": 6, "from": 0, "until": 0.002, "factor": 3}],
		  "joins":     [{"machine": 7, "at": 0.0005, "nics": 62.5e6}],
		  "drains":    [{"machine": 3, "at": 0.001, "deadline": 1.0}]
		}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		load := func(name string, data []byte) (*Schedule, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return Load(path)
		}
		s, err := load("in.json", data)
		if err != nil {
			return
		}
		top := s.MaxMachine()
		for _, n := range []int{0, 1, 4, top, top + 1} {
			_ = s.Validate(n)
		}
		// Expanding a topology allocates its bandwidth matrix, quadratic in
		// the machine count, so only small IDs are expanded.
		if top < 64 {
			for _, n := range []int{1, 4, 16} {
				if topo, err := s.RunInputs(cluster.NewT1(n)); err == nil && topo.NumMachines() != max(n, top+1) {
					t.Fatalf("RunInputs on %d machines: %d machines, want %d", n, topo.NumMachines(), max(n, top+1))
				}
			}
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("an accepted schedule does not marshal: %v", err)
		}
		again, err := load("out.json", out)
		if err != nil {
			t.Fatalf("the marshalled schedule is refused: %v\n%s", err, out)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("round trip changed the file (%v):\n%s\n%s", err, out, out2)
		}
	})
}

// FuzzFaultIndex: the Index the engine queries answers exactly as the
// linear scans it replaced (the reference in fault_test.go), bit for bit,
// on all three queries. Every four input bytes are one fault among three
// machines — its class, its link or machine, its window and its factor —
// so windows overlap on one link and on one machine, and factors that are
// not powers of two compound in an order the result can tell. Queries fall
// on every window edge, just below it and inside it.
//
//	go test -run '^$' -fuzz FuzzFaultIndex -fuzztime 30s ./internal/fault
func FuzzFaultIndex(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 4, 2, 6, 1, 8, 3, 7, 2})
	f.Add([]byte{2, 0, 9, 3, 6, 1, 4, 4, 2, 3, 9, 5, 1, 0, 8, 0, 5, 2, 3, 0})
	f.Add([]byte{0, 0, 9, 0, 0, 0, 9, 1, 0, 0, 9, 2, 0, 0, 9, 3})
	times := []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.7, 1, 2.5, math.Inf(1), math.NaN()}
	factors := []float64{1.1, 1.3, 1.7, 3.7, 2, 1, 0.5, math.Inf(1), math.NaN()}
	const machines = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Schedule{}
		var edges []float64
		for ; len(data) >= 4; data = data[4:] {
			src := cluster.MachineID(data[0] >> 2 % machines)
			dst := (src + 1 + cluster.MachineID(data[0]>>4%2)) % machines
			from, until := times[int(data[1])%len(times)], times[int(data[2])%len(times)]
			factor := factors[int(data[3])%len(factors)]
			switch data[0] % 3 {
			case 0:
				s.Links = append(s.Links, LinkFault{Src: src, Dst: dst, From: from, Until: until, Factor: factor})
			case 1:
				s.Drops = append(s.Drops, LinkFault{Src: src, Dst: dst, From: from, Until: until})
			default:
				s.Slowdowns = append(s.Slowdowns, Slowdown{Machine: src, From: from, Until: until, Factor: factor})
			}
			edges = append(edges, from, until, math.Nextafter(from, math.Inf(-1)),
				math.Nextafter(until, math.Inf(-1)), from+(until-from)/2)
		}
		ix := s.Index()
		for _, at := range edges {
			for src := cluster.MachineID(0); src < machines; src++ {
				if got, want := ix.SlowdownFactor(src, at), s.SlowdownFactor(src, at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("SlowdownFactor(%d, %g) = %v, reference %v\n%+v", src, at, got, want, s)
				}
				for dst := cluster.MachineID(0); dst < machines; dst++ {
					if got, want := ix.LinkFactor(src, dst, at), s.LinkFactor(src, dst, at); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("LinkFactor(%d→%d, %g) = %v, reference %v\n%+v", src, dst, at, got, want, s)
					}
					if got, want := ix.DropsTransfer(src, dst, at), s.DropsTransfer(src, dst, at); got != want {
						t.Fatalf("DropsTransfer(%d→%d, %g) = %v, reference %v\n%+v", src, dst, at, got, want, s)
					}
				}
			}
		}
	})
}
