package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// words encodes little-endian uint32s, the unit of both file formats.
func words(ws ...uint32) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// TestImplausibleCountsAreErrors: a count in a header is not an allocation.
// Each row used to end the process with "fatal error: runtime: out of
// memory" — not a panic, nothing a caller can recover from — on the 16 bytes
// it names.
func TestImplausibleCountsAreErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		read func() error
		want string
	}{
		{"a partition header claiming 2^32-1 vertices", func() error {
			_, err := ReadPartition(bytes.NewReader(words(partMagic, partVersion, 0, 0xFFFFFFFF)))
			return err
		}, "reading vertex 0"},
		{"a manifest claiming 2^31 vertices", func() error {
			if err := os.WriteFile(filepath.Join(dir, manifestName), words(manifestMagic, manifestVersion, 1, 1<<31), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadDir(dir)
			return err
		}, "manifest of 2147483648 vertices is 16 bytes, want 8589934608"},
	} {
		if err := tc.read(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzReadPartition: ReadPartition never panics, and allocates for no more
// records than the input holds, whatever its counts claim. What it accepts
// writes back to the bytes it read (a file is its records; what follows them
// is not read).
//
//	go test -run '^$' -fuzz FuzzReadPartition -fuzztime 30s ./internal/storage
func FuzzReadPartition(f *testing.F) {
	pg := buildPG(f, graph.Social(graph.DefaultSocial(512, 3)), 2, 3)
	for _, pi := range pg.Parts {
		var b bytes.Buffer
		if err := WritePartition(&b, pg.G, pi); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add(words(partMagic, partVersion, 0, 0xFFFFFFFF))
	f.Add(words(partMagic, partVersion, 7, 1, 5, 0xFFFFFFFF))
	f.Add(words(partMagic, partVersion, 0x80000000, 2, 1, 0, 2, 1, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		pd, err := ReadPartition(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writePartition(&out, pd.ID, pd.Vertices, func(i int) []graph.VertexID { return pd.Adjacency[i] }); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted partition writes back differently:\nread  %x\nwrote %x", data, out.Bytes())
		}
	})
}
