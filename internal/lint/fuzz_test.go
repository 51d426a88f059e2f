// Fuzz target for the finding deduplicator, whose input is a stream merged
// from several passes. Seed corpus under testdata/fuzz/ is committed; `go
// test -fuzz` extends it locally.

package lint

import "testing"

func FuzzDedup(f *testing.F) {
	f.Add("SL001", "a.go", "m1", 1, 2, "SL002", "b.go", "m2", 3, 4)
	f.Add("SL001", "a.go", "m1", 1, 2, "SL001", "a.go", "m1", 1, 2)
	f.Add("SL000", "", "", 0, 0, "SL000", "", "", 0, 0)
	f.Add("SL006", "x.go", "same line, different col", 7, 1, "SL006", "x.go", "same line, different col", 7, 9)
	f.Fuzz(func(t *testing.T, id1, file1, msg1 string, line1, col1 int, id2, file2, msg2 string, line2, col2 int) {
		in := []Finding{
			{ID: id1, File: file1, Message: msg1, Line: line1, Col: col1},
			{ID: id2, File: file2, Message: msg2, Line: line2, Col: col2},
			{ID: id1, File: file1, Message: msg1, Line: line1, Col: col1}, // guaranteed duplicate
		}
		out := Dedup(append([]Finding(nil), in...))
		if len(out) > len(in) {
			t.Fatalf("Dedup grew the stream: %d -> %d", len(in), len(out))
		}
		type key struct {
			id, file, msg string
			line, col     int
		}
		seen := map[key]bool{}
		for _, f := range out {
			k := key{f.ID, f.File, f.Message, f.Line, f.Col}
			if seen[k] {
				t.Fatalf("duplicate survived Dedup: %+v", f)
			}
			seen[k] = true
		}
		// Every input finding must still be represented.
		for _, f := range in {
			if !seen[key{f.ID, f.File, f.Message, f.Line, f.Col}] {
				t.Fatalf("Dedup dropped a distinct finding: %+v", f)
			}
		}
		// Idempotence and first-wins order: out is a subsequence of in.
		again := Dedup(append([]Finding(nil), out...))
		if len(again) != len(out) {
			t.Fatalf("Dedup not idempotent: %d -> %d", len(out), len(again))
		}
		keyOf := func(f Finding) key { return key{f.ID, f.File, f.Message, f.Line, f.Col} }
		i := 0
		for _, f := range in {
			if i < len(out) && keyOf(out[i]) == keyOf(f) {
				i++
			}
		}
		if i != len(out) {
			t.Fatalf("Dedup reordered findings: %v not a subsequence of %v", out, in)
		}
	})
}
