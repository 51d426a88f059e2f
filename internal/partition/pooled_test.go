package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pool"
)

// The serial builds the pooled phases replaced: newWorkGraph's and
// contract's row loops over every row in order, into fresh slices. The
// pooled builds must equal them byte for byte — rows, their order and xadj —
// at every range count.

func serialWorkGraph(und *graph.Graph, subset []graph.VertexID) *wgraph {
	local := make([]int32, und.NumVertices())
	for i := range local {
		local[i] = -1
	}
	for i, v := range subset {
		local[v] = int32(i)
	}
	w := &wgraph{vwgt: make([]int64, len(subset)), xadj: make([]int32, len(subset)+1)}
	for i, v := range subset {
		w.vwgt[i] = 1 + int64(und.OutDegree(v))
		for _, nb := range und.Neighbors(v) {
			if j := local[nb]; j >= 0 {
				w.edges = append(w.edges, wedge{to: j, w: 1})
			}
		}
		w.xadj[i+1] = int32(len(w.edges))
	}
	return w
}

func (w *wgraph) serialContract(match []int32, coarseN int) *wgraph {
	c := &wgraph{vwgt: make([]int64, coarseN), xadj: make([]int32, coarseN+1)}
	start := make([]int32, coarseN+1)
	for v, cv := range match {
		c.vwgt[cv] += w.vwgt[v]
		start[cv+1]++
	}
	for i := 1; i <= coarseN; i++ {
		start[i] += start[i-1]
	}
	members := make([]int32, len(match))
	cursor := slices.Clone(start[:coarseN])
	for v, cv := range match {
		members[cursor[cv]] = int32(v)
		cursor[cv]++
	}
	slot := make([]int32, coarseN)
	for i := range slot {
		slot[i] = -1
	}
	for cv := int32(0); cv < int32(coarseN); cv++ {
		lo := int32(len(c.edges))
		c.xadj[cv] = lo
		for _, v := range members[start[cv]:start[cv+1]] {
			for _, e := range w.adjOf(int(v)) {
				cn := match[e.to]
				if cn == cv {
					continue
				}
				if s := slot[cn]; s >= lo {
					c.edges[s].w += e.w
				} else {
					slot[cn] = int32(len(c.edges))
					c.edges = append(c.edges, wedge{to: cn, w: e.w})
				}
			}
		}
	}
	c.xadj[coarseN] = int32(len(c.edges))
	return c
}

// rangedScratch is a scratch whose phases split into up to ranges ranges of
// a single entry, so that small graphs exercise the joins.
func rangedScratch(n, ranges int) *wscratch {
	sc := newWScratch(n, pool.New(ranges))
	sc.job.setRanges(ranges, 1)
	return sc
}

var testRanges = []int{1, 2, 8}

// checkPooledPhases compares newWorkGraph and contract at every range count
// with the serial builds, on the induced subgraph of a random graph over a
// random subset and on two coarsenings of it.
func checkPooledPhases(seed int64, nPick, mPick uint16) error {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(nPick%300)
	und := graph.Uniform(n, int(mPick%2000), seed).Undirected()
	var subset []graph.VertexID
	for _, v := range rng.Perm(n) {
		if rng.Intn(4) != 0 {
			subset = append(subset, graph.VertexID(v))
		}
	}
	want := serialWorkGraph(und, subset)
	matches := [][]int32{}
	if len(subset) > 0 {
		hem, _ := want.heavyEdgeMatching(rng, newWScratch(0, nil))
		matches = append(matches, hem, randomMatch(rng, len(subset), 1+rng.Intn(len(subset))))
	}
	for _, ranges := range testRanges {
		sc := rangedScratch(n, ranges)
		w := newWorkGraph(und, subset, sc)
		if !sameGraph(&w, want) {
			return fmt.Errorf("newWorkGraph at %d ranges differs from the serial build (n=%d, subset %d)", ranges, n, len(subset))
		}
		for _, match := range matches {
			cn := int(slices.Max(match)) + 1
			got := w.contract(match, cn, sc)
			if !sameGraph(&got, want.serialContract(match, cn)) {
				return fmt.Errorf("contract at %d ranges differs from the serial build (n=%d, cn=%d)", ranges, len(subset), cn)
			}
		}
	}
	return nil
}

func TestQuickPooledPhasesMatchSerial(t *testing.T) {
	f := func(seed int64, nPick, mPick uint16) bool {
		if err := checkPooledPhases(seed, nPick, mPick); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPooledRefineMatchesSerial: refinement's initial gains and side
// weights, summed over ranges, take the moves the one-range sweep takes.
func TestQuickPooledRefineMatchesSerial(t *testing.T) {
	f := func(seed int64, nPick, mPick uint16, big bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nPick%300)
		w := randomWGraph(rng, n, int(mPick%3000), false, big)
		start := make([]uint8, n)
		for i := range start {
			start[i] = uint8(rng.Intn(2))
		}
		want := slices.Clone(start)
		refine(w, want, newWScratch(0, nil))
		for _, ranges := range testRanges[1:] {
			side := slices.Clone(start)
			refine(w, side, rangedScratch(0, ranges))
			if !bytes.Equal(side, want) {
				t.Logf("refine at %d ranges moved differently (n=%d)", ranges, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
