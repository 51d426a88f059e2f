package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
)

// The comparers check an application's result against its sequential
// reference, one per result shape the six applications produce.

// floatsWithin reports whether a and b have equal length and differ by at
// most tol in every element.
func floatsWithin(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= tol) { // written so that a NaN fails
			return false
		}
	}
	return true
}

func histEqual(a, b map[int]int64) bool { return maps.Equal(a, b) }

// listsEqual compares adjacency-list results; a nil and an empty list are
// the same list.
func listsEqual(a, b [][]graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// resultEqual compares an application's opaque result with its reference.
// Only NR is floating point: its reference sums in a different order, so it
// gets the 1e-12 the repository's own tests allow.
func resultEqual(got, want any) (bool, error) {
	switch w := want.(type) {
	case []float64:
		g, ok := got.([]float64)
		return ok && floatsWithin(g, w, 1e-12), nil
	case []uint8:
		g, ok := got.([]uint8)
		return ok && bytes.Equal(g, w), nil
	case map[int]int64:
		g, ok := got.(map[int]int64)
		return ok && histEqual(g, w), nil
	case [][]graph.VertexID:
		g, ok := got.([][]graph.VertexID)
		return ok && listsEqual(g, w), nil
	case int64:
		g, ok := got.(int64)
		return ok && g == w, nil
	}
	return false, fmt.Errorf("no comparer for a %T reference", want)
}

// digest hashes results in a canonical form, so that two repetitions (or
// two worker counts) can be compared to the bit without keeping both.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) { return d.h.Write(p) }

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

// add hashes one application result of any of the shapes resultEqual knows.
func (d *digest) add(v any) {
	switch x := v.(type) {
	case []float64:
		d.u64(uint64(len(x)))
		for _, f := range x {
			d.u64(math.Float64bits(f))
		}
	case []uint8:
		d.u64(uint64(len(x)))
		d.h.Write(x)
	case map[int]int64:
		keys := make([]int, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		d.u64(uint64(len(keys)))
		for _, k := range keys {
			d.u64(uint64(k))
			d.u64(uint64(x[k]))
		}
	case [][]graph.VertexID:
		d.u64(uint64(len(x)))
		for _, l := range x {
			d.u64(uint64(len(l)))
			for _, u := range l {
				d.u64(uint64(u))
			}
		}
	case int64:
		d.u64(uint64(x))
	case string:
		d.u64(uint64(len(x)))
		d.h.Write([]byte(x))
	default:
		panic(fmt.Sprintf("digest: no canonical form for %T", v))
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
