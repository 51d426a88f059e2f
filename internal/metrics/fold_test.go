package metrics_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// A capture on 128 machines crosses thousands of directed links, so its fold
// creates far more series than any chunk the collector keeps them in, or any
// single growth of the buffer their names are rendered into.
const wideEvents, wideMachines, minWideSeries = 20_000, 128, 4096

func wideConfig() metrics.Config {
	return metrics.Config{Window: benchWindow, Topo: cluster.NewT1(wideMachines)}
}

// setDigest hashes what a set exports: its window, window count, and every
// series' name and value bits in order.
func setDigest(s *metrics.Set) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(math.Float64bits(s.Window))
	word(uint64(s.Windows))
	for _, sr := range s.Series {
		word(uint64(len(sr.Name)))
		h.Write([]byte(sr.Name))
		word(uint64(len(sr.Values)))
		for _, v := range sr.Values {
			word(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%d series %x", len(s.Series), h.Sum(nil))
}

// TestFromEventsDigest pins the names and value bits FromEvents exports for
// the wide capture against a committed digest (re-record with -update, only
// for an intended change to what the fold computes).
func TestFromEventsDigest(t *testing.T) {
	set, _, err := metrics.FromEvents(tracetest.Capture(wideEvents, wideMachines), wideConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Series) < minWideSeries {
		t.Fatalf("the capture folds into %d series, want at least %d", len(set.Series), minWideSeries)
	}
	got := setDigest(set) + "\n"
	golden := filepath.Join("testdata", "fold_digest.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fold digest of the %d-machine capture:\n got %s\nwant %s", wideMachines, strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// TestLiveCollectorMatchesFromEvents: a collector attached to the recorder
// while the wide capture is emitted exports the set FromEvents derives from
// the finished stream.
func TestLiveCollectorMatchesFromEvents(t *testing.T) {
	col, err := metrics.NewCollector(wideConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	col.Attach(rec)
	tracetest.Record(rec, wideEvents, wideMachines)
	live := col.Finish()
	derived, _, err := metrics.FromEvents(rec.Events(), wideConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := setDigest(live), setDigest(derived); got != want {
		t.Errorf("live collector exports %s, FromEvents %s", got, want)
	}
}
