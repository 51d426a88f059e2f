package fault

import (
	"bytes"
	"encoding/json"
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
