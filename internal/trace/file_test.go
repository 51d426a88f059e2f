package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestFileReaders: ReadFile and ScanFile hand back what ReadEvents does for
// the same bytes plus a topology that round-trips through the header, and
// every refusal names the file — with ErrNotStream marking the files that
// are some other format rather than a damaged stream.
func TestFileReaders(t *testing.T) {
	valid := filepath.Join("testdata", "valid.json")
	s, err := ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	topo := s.Topo.Topology()
	if len(s.Events) != 6 || topo.NumMachines() != 2 || !reflect.DeepEqual(TopoOf(topo), s.Topo) {
		t.Fatalf("ReadFile: %d events, topology %v, header %+v", len(s.Events), topo, s.Topo)
	}
	var scanned []Event
	err = ScanFile(valid, func(hdr *Stream) error {
		if !reflect.DeepEqual(hdr.Topo, s.Topo) {
			t.Errorf("ScanFile header %+v, want %+v", hdr.Topo, s.Topo)
		}
		return nil
	}, func(ev *Event) error {
		scanned = append(scanned, *ev)
		return nil
	})
	if err != nil || !reflect.DeepEqual(scanned, s.Events) {
		t.Fatalf("ScanFile: %v, %d events; want those of ReadFile", err, len(scanned))
	}
	if (*TopoInfo)(nil).Topology() != nil {
		t.Error("a stream without a header has a topology")
	}
	if got := TopoOf(cluster.NewT3(4, 1)).Topology().BandwidthMatrix(); !reflect.DeepEqual(got, cluster.NewT3(4, 1).BandwidthMatrix()) {
		t.Error("topology does not survive the header round trip")
	}

	empty := filepath.Join(t.TempDir(), "empty.events")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path      string
		notStream bool
		want      string
	}{
		{filepath.Join("testdata", "missing.json"), false, "no such file"},
		{empty, true, "not a raw event trace"},
		{filepath.Join("testdata", "chrome_golden.json"), true, "Chrome exports cannot be analyzed"},
		{filepath.Join("testdata", "truncated.json"), false, "truncated"},
		{filepath.Join("testdata", "corrupt.json"), false, "invalid raw trace JSON"},
		{filepath.Join("testdata", "badseq.json"), false, "seq"},
	} {
		_, readErr := ReadFile(tc.path)
		scanErr := ScanFile(tc.path, func(*Stream) error { return nil }, func(*Event) error { return nil })
		for _, err := range []error{readErr, scanErr} {
			if err == nil || !strings.Contains(err.Error(), tc.path) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one naming the file and %q", tc.path, err, tc.want)
			}
			if errors.Is(err, ErrNotStream) != tc.notStream {
				t.Errorf("%s: errors.Is(ErrNotStream) = %v, want %v (%v)", tc.path, !tc.notStream, tc.notStream, err)
			}
		}
	}
}
