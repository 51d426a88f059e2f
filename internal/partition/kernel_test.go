package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// validate checks the invariants every wgraph must hold (see wgraph): a
// well-formed CSR, positive weights, no self-loops, no neighbor listed twice,
// and symmetry with equal weights in both directions.
func (w *wgraph) validate() error {
	n := w.n()
	if len(w.xadj) != n+1 || w.xadj[0] != 0 || int(w.xadj[n]) != len(w.edges) {
		return fmt.Errorf("xadj does not frame %d edges over %d vertices", len(w.edges), n)
	}
	type pair struct{ u, v int32 }
	weight := make(map[pair]int32, len(w.edges))
	for u := 0; u < n; u++ {
		if w.xadj[u] > w.xadj[u+1] {
			return fmt.Errorf("xadj decreases at %d", u)
		}
		for _, e := range w.adjOf(u) {
			switch {
			case e.to < 0 || int(e.to) >= n:
				return fmt.Errorf("edge %d->%d out of range", u, e.to)
			case int(e.to) == u:
				return fmt.Errorf("self-loop at %d", u)
			case e.w <= 0:
				return fmt.Errorf("edge %d->%d has weight %d", u, e.to, e.w)
			}
			if _, dup := weight[pair{int32(u), e.to}]; dup {
				return fmt.Errorf("vertex %d lists neighbor %d twice", u, e.to)
			}
			weight[pair{int32(u), e.to}] = e.w
		}
	}
	for p, wt := range weight {
		if back, ok := weight[pair{p.v, p.u}]; !ok || back != wt {
			return fmt.Errorf("edge %d->%d (w=%d) has reverse weight %d", p.u, p.v, wt, back)
		}
	}
	return nil
}

// sortedRows returns a copy of w with every adjacency sorted by neighbor: the
// canonical form in which the sort-based reference and the first-seen-order
// contraction must agree.
func sortedRows(w *wgraph) *wgraph {
	c := &wgraph{vwgt: slices.Clone(w.vwgt), xadj: slices.Clone(w.xadj), edges: slices.Clone(w.edges)}
	for v := 0; v < c.n(); v++ {
		slices.SortFunc(c.adjOf(v), func(a, b wedge) int { return int(a.to) - int(b.to) })
	}
	return c
}

func sameGraph(a, b *wgraph) bool {
	return slices.Equal(a.vwgt, b.vwgt) && slices.Equal(a.xadj, b.xadj) && slices.Equal(a.edges, b.edges)
}

// randomWGraph draws a symmetric weighted graph on n vertices from m random
// vertex pairs. With multi set, a pair drawn twice stays two parallel
// edges, which breaks the no-duplicate invariant on purpose: contraction
// must merge them like any other parallel coarse edges. Weights are small,
// or when big is set mostly near the top of the range a work graph can
// reach: at most m edges listed twice keep the total weight below 2^31 (see
// wedge), so contracting them all into one coarse pair comes near it.
func randomWGraph(rng *rand.Rand, n, m int, multi, big bool) *wgraph {
	adj := make([][]wedge, n)
	seen := map[[2]int32]bool{}
	top := int32((1<<31 - 1) / (2 * max(m, 1)))
	for i := 0; i < m && n > 1; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if !multi {
			if seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}], seen[[2]int32{v, u}] = true, true
		}
		wt := 1 + rng.Int31n(5)
		if big && rng.Intn(3) != 0 {
			wt = top - rng.Int31n(min(top, 5))
		}
		adj[u] = append(adj[u], wedge{to: v, w: wt})
		adj[v] = append(adj[v], wedge{to: u, w: wt})
	}
	w := &wgraph{vwgt: make([]int64, n), xadj: make([]int32, n+1)}
	for v, row := range adj {
		w.vwgt[v] = 1 + rng.Int63n(4)
		w.edges = append(w.edges, row...)
		w.xadj[v+1] = int32(len(w.edges))
	}
	return w
}

// randomMatch maps n fine vertices onto cn coarse ones, every coarse vertex
// hit at least once and group sizes otherwise arbitrary (a matching is the
// special case of sizes 1 and 2).
func randomMatch(rng *rand.Rand, n, cn int) []int32 {
	match := make([]int32, n)
	for i, v := range rng.Perm(n) {
		if i < cn {
			match[v] = int32(i)
		} else {
			match[v] = int32(rng.Intn(cn))
		}
	}
	return match
}

// checkContract compares contract with the sort-based reference on one input.
func checkContract(seed int64, n, m int, multi, big bool) error {
	rng := rand.New(rand.NewSource(seed))
	w := randomWGraph(rng, n, m, multi, big)
	if !multi {
		if err := w.validate(); err != nil {
			return fmt.Errorf("generator: %w", err)
		}
	}
	sc := newWScratch(0)
	matches := [][]int32{randomMatch(rng, n, 1+rng.Intn(n))}
	if !multi {
		hem, _ := w.heavyEdgeMatching(rng, sc)
		matches = append(matches, hem)
	}
	for _, match := range matches {
		cn := int(slices.Max(match)) + 1
		c := w.contract(match, cn, sc)
		got, want := &c, w.refContract(match, cn)
		if err := got.validate(); err != nil {
			return fmt.Errorf("contract output: %w", err)
		}
		if !sameGraph(sortedRows(got), want) {
			return fmt.Errorf("contract differs from the sort-based reference (n=%d m=%d cn=%d)", n, m, cn)
		}
		if got.totalVertexWeight() != w.totalVertexWeight() {
			return fmt.Errorf("contract changed the total vertex weight")
		}
	}
	return nil
}

func TestQuickContractMatchesReference(t *testing.T) {
	f := func(seed int64, nPick, mPick uint16, multi, big bool) bool {
		n := 1 + int(nPick%300)
		if err := checkContract(seed, n, int(mPick%2000), multi, big); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func FuzzContract(f *testing.F) {
	f.Add(int64(1), uint16(2), uint16(1), false, false)
	f.Add(int64(2), uint16(64), uint16(400), true, true)
	f.Add(int64(3), uint16(257), uint16(90), false, true)
	f.Fuzz(func(t *testing.T, seed int64, nPick, mPick uint16, multi, big bool) {
		if err := checkContract(seed, 1+int(nPick%300), int(mPick%2000), multi, big); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickMatchingIgnoresRowOrder pins the tie-break that lets contract skip
// the sort: the matching of a graph and of the same graph with every
// adjacency shuffled are the same.
func TestQuickMatchingIgnoresRowOrder(t *testing.T) {
	f := func(seed int64, nPick, mPick uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := sortedRows(randomWGraph(rng, 2+int(nPick%300), int(mPick%2000), false, false))
		shuffled := sortedRows(w)
		for v := 0; v < shuffled.n(); v++ {
			row := shuffled.adjOf(v)
			rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		}
		sc := newWScratch(0)
		a, cnA := w.heavyEdgeMatching(rand.New(rand.NewSource(seed)), sc)
		b, cnB := shuffled.heavyEdgeMatching(rand.New(rand.NewSource(seed)), sc)
		return cnA == cnB && slices.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRefineMatchesReference: incremental gains take exactly the moves
// the recompute-every-gain sweep takes.
func TestQuickRefineMatchesReference(t *testing.T) {
	f := func(seed int64, nPick, mPick uint16, big bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nPick%300)
		w := randomWGraph(rng, n, int(mPick%3000), false, big)
		side := make([]uint8, n)
		for i := range side {
			side[i] = uint8(rng.Intn(2))
		}
		want := slices.Clone(side)
		refRefine(w, want)
		refine(w, side, newWScratch(0))
		return bytes.Equal(side, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGGGPMatchesReference: the frontier heap absorbs the vertices the
// full scan picked, draw for draw, on connected and disconnected graphs.
func TestQuickGGGPMatchesReference(t *testing.T) {
	f := func(seed int64, nPick, mPick uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nPick%200)
		// m below n leaves isolated vertices and several components.
		w := randomWGraph(rng, n, int(mPick)%(3*n), false, false)
		rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := gggp(w, rngA, newWScratch(0)), refGGGP(w, rngB)
		return bytes.Equal(got, want) && rngA.Int63() == rngB.Int63()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkGraphInvariants: the invariants hold on induced work graphs and
// survive every coarsening level.
func TestWorkGraphInvariants(t *testing.T) {
	und := graph.Social(graph.DefaultSocial(4096, 3)).Undirected()
	subset := make([]graph.VertexID, 0, 2048)
	for v := 0; v < und.NumVertices(); v += 2 {
		subset = append(subset, graph.VertexID(v))
	}
	w, sc := testWorkGraph(und, subset)
	rng := rand.New(rand.NewSource(3))
	for level := 0; ; level++ {
		if err := w.validate(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		match, cn := w.heavyEdgeMatching(rng, sc)
		if cn == w.n() {
			break
		}
		c := w.contract(match, cn, sc)
		w = &c
	}
}

// totalEdgeWeight sums every adjacency entry's weight (each undirected edge
// twice).
func totalEdgeWeight(w *wgraph) int64 {
	var s int64
	for _, e := range w.edges {
		s += int64(e.w)
	}
	return s
}

// TestContractKeepsWeightBelow2To31 pins the argument that makes wedge's
// weights 32 bits wide: on a Social graph, every coarse level's total edge
// weight is the finer level's total minus the weight that collapsed inside
// matched pairs, so no level's total (nor any one weight) exceeds the root's
// — one per entry, below 2^31.
func TestContractKeepsWeightBelow2To31(t *testing.T) {
	und := graph.Social(graph.DefaultSocial(1<<14, 42)).Undirected()
	w, sc := testWorkGraph(und, allVertices(und.NumVertices()))
	root := totalEdgeWeight(w)
	if root != int64(len(w.edges)) || root >= 1<<31 {
		t.Fatalf("root work graph: total weight %d over %d entries, want one per entry and below 2^31", root, len(w.edges))
	}
	rng := rand.New(rand.NewSource(42))
	for level := 0; w.n() > coarsenTarget; level++ {
		match, cn := w.heavyEdgeMatching(rng, sc)
		if cn == w.n() {
			break
		}
		var collapsed int64
		for v := 0; v < w.n(); v++ {
			for _, e := range w.adjOf(v) {
				if match[v] == match[e.to] {
					collapsed += int64(e.w)
				}
			}
		}
		c := w.contract(match, cn, sc)
		fine, coarse := totalEdgeWeight(w), totalEdgeWeight(&c)
		if coarse != fine-collapsed {
			t.Fatalf("level %d: coarse total weight %d, want %d - %d collapsed", level+1, coarse, fine, collapsed)
		}
		t.Logf("level %d: %d vertices, total weight %d", level+1, c.n(), coarse)
		w = &c
	}
}

// star is a hub (vertex 0) with the given number of leaves.
func star(leaves int) *graph.Graph {
	offsets := make([]int64, leaves+2)
	targets := make([]graph.VertexID, leaves)
	for i := range targets {
		targets[i] = graph.VertexID(i + 1)
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] = int64(leaves)
	}
	return graph.NewFromCSR(offsets, targets)
}

// TestStarBisectsInLinearTime is the regression test of GGGP's quadratic
// cliff: heavy-edge matching stalls on a hub at once, so GGGP grows on all
// 200 001 vertices, and below the root every subgraph is edgeless, so every
// absorption takes the empty-frontier fallback. Rescanning all n vertices
// per absorbed vertex took 1 s at 20 000 leaves and would take minutes here,
// so the test timeout is the assertion.
func TestStarBisectsInLinearTime(t *testing.T) {
	pt, sk := RecursiveBisect(star(200_000), 3, Options{Seed: 1})
	if err := sk.Validate(pt); err != nil {
		t.Fatal(err)
	}
}

// TestRecursiveBisectAllocations pins the arena: a whole run makes a fixed
// number of allocations — the subsets, the arena's chunks — whatever the
// vertex count (52 and 63 when the ceiling was set; the arena's chunk count
// grows with the number of coarsening levels, log n), and none per sketch
// node or bisection: the sketch is a view of Assign and each bisection
// splits its subset in place. The ceiling is the larger count plus 7 (~10%)
// for a chunk or two more at other sizes. A fresh slice per bisection and a
// second transpose in graph.Undirected made 120 and 130, and the old kernel
// made two allocations per vertex.
func TestRecursiveBisectAllocations(t *testing.T) {
	const ceiling = 70
	for _, n := range []int{1 << 12, 1 << 14} {
		g := graph.Social(graph.DefaultSocial(n, 42))
		allocs := testing.AllocsPerRun(1, func() { RecursiveBisect(g, 6, Options{Seed: 42}) })
		t.Logf("%d vertices: %.0f allocations", n, allocs)
		if allocs > ceiling {
			t.Errorf("RecursiveBisect(%d vertices, 6 levels) made %.0f allocations, want <= %d", n, allocs, ceiling)
		}
	}
}

// TestRecursiveBisectBytes is the bytes budget of one run on the 16k Social
// graph: the growth of runtime.MemStats.TotalAlloc across the call, which is
// deterministic because RecursiveBisect is serial and allocates the same
// sizes on every call. The ceiling is the count measured when it was set
// plus 5%. 16-byte work-graph entries, a second transpose in
// graph.Undirected and a fresh slice per bisection took 31 647 504 bytes.
func TestRecursiveBisectBytes(t *testing.T) {
	const measured = 17_318_240
	const ceiling = measured + measured/20
	g := graph.Social(graph.DefaultSocial(1<<14, 42))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RecursiveBisect(g, 6, Options{Seed: 42})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("16k vertices: %d bytes", got)
	if got > ceiling {
		t.Errorf("RecursiveBisect(16k vertices, 6 levels) allocated %d bytes, want <= %d", got, ceiling)
	}
}
