package apps

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

type fixture struct {
	g    *graph.Graph
	pg   *storage.PartitionedGraph
	sk   *partition.Sketch
	topo *cluster.Topology
	pl   *partition.Placement
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	g := graph.SmallWorld(graph.DefaultSmallWorld(2000, seed))
	pt, sk := partition.RecursiveBisect(g, 3, partition.Options{Seed: seed})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT1(4)
	pl := partition.SketchPlacement(sk, topo)
	return &fixture{g: g, pg: pg, sk: sk, topo: topo, pl: pl}
}

func (f *fixture) runner() *engine.Runner {
	return engine.New(engine.Config{Topo: f.topo})
}

var optLevels = map[string]propagation.Options{
	"O1": {},
	"O3": {LocalPropagation: true, LocalCombination: true},
}

// --- NR ---

func TestNRPropagationMatchesReference(t *testing.T) {
	f := newFixture(t, 1)
	want := ReferenceNR(f.g, 3)
	for name, opt := range optLevels {
		res, _, err := NewNR(3).RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.([]float64)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Fatalf("%s: rank[%d] = %g, want %g", name, v, got[v], want[v])
			}
		}
	}
}

func TestNRMapReduceMatchesReference(t *testing.T) {
	f := newFixture(t, 2)
	want := ReferenceNR(f.g, 3)
	res, _, err := NewNR(3).RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	got := res.([]float64)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %g, want %g", v, got[v], want[v])
		}
	}
}

func TestNRRanksSumToOne(t *testing.T) {
	f := newFixture(t, 3)
	res, _, err := NewNR(2).RunPropagation(f.runner(), f.pg, f.pl, propagation.Options{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range res.([]float64) {
		sum += r
	}
	// Dangling vertices leak rank mass; small-world graphs have few, so
	// the sum stays near 1.
	if sum < 0.8 || sum > 1.0+1e-9 {
		t.Fatalf("rank sum = %g", sum)
	}
}

// --- RS ---

func TestRSAllVariantsAgree(t *testing.T) {
	f := newFixture(t, 4)
	cfg := DefaultRSConfig()
	want := ReferenceRS(f.g, cfg)
	for name, opt := range optLevels {
		res, _, err := NewRS(cfg).RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.([]uint8)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: adoption[%d] = %d, want %d", name, v, got[v], want[v])
			}
		}
	}
	res, _, err := NewRS(cfg).RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	got := res.([]uint8)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("MR: adoption[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestRSAdoptionGrows(t *testing.T) {
	f := newFixture(t, 5)
	cfg := DefaultRSConfig()
	adopted := ReferenceRS(f.g, cfg)
	seeds, final := 0, 0
	for v := range adopted {
		if cfg.seeded(graph.VertexID(v)) {
			seeds++
		}
		if adopted[v] == 1 {
			final++
		}
	}
	if final <= seeds {
		t.Fatalf("adoption did not grow: seeds=%d final=%d", seeds, final)
	}
}

// --- VDD ---

func TestVDDAllVariantsAgree(t *testing.T) {
	f := newFixture(t, 6)
	want := ReferenceVDD(f.g)
	for name, opt := range optLevels {
		res, _, err := NewVDD().RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.(map[int]int64)
		if !histEqual(got, want) {
			t.Fatalf("%s: histogram mismatch", name)
		}
	}
	res, _, err := NewVDD().RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(res.(map[int]int64), want) {
		t.Fatal("MR histogram mismatch")
	}
}

func histEqual(a, b map[int]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// --- RLG ---

func TestRLGAllVariantsAgree(t *testing.T) {
	f := newFixture(t, 7)
	want := ReferenceRLG(f.g)
	for name, opt := range optLevels {
		res, _, err := NewRLG().RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !listsEqual(res.([][]graph.VertexID), want) {
			t.Fatalf("%s: reversed lists mismatch", name)
		}
	}
	res, _, err := NewRLG().RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	if !listsEqual(res.([][]graph.VertexID), want) {
		t.Fatal("MR reversed lists mismatch")
	}
}

func TestRLGDoubleReverseIsIdentity(t *testing.T) {
	f := newFixture(t, 8)
	lists := ReferenceRLG(f.g)
	b := graph.NewBuilder(f.g.NumVertices())
	for v, ins := range lists {
		for _, u := range ins {
			b.AddEdge(graph.VertexID(v), u) // re-reverse
		}
	}
	if !b.Build().Equal(f.g.Reverse()) {
		t.Fatal("double reverse mismatch")
	}
}

func listsEqual(a, b [][]graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// --- TC ---

func TestTCAllVariantsAgree(t *testing.T) {
	f := newFixture(t, 9)
	// Use a denser sample so some triangles exist at this scale.
	ratio := 2
	want := ReferenceTC(f.g, ratio)
	if want == 0 {
		t.Fatal("fixture has no triangles; pick another seed")
	}
	for name, opt := range optLevels {
		res, _, err := NewTC(ratio).RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.(int64) != want {
			t.Fatalf("%s: triangles = %d, want %d", name, res.(int64), want)
		}
	}
	res, _, err := NewTC(ratio).RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) != want {
		t.Fatalf("MR: triangles = %d, want %d", res.(int64), want)
	}
}

func TestTCNotAssociative(t *testing.T) {
	p := &tcProgram{}
	if p.Associative() {
		t.Fatal("TC must not be associative")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Merge on TC must panic")
		}
	}()
	p.Merge(0, nil)
}

// --- TFL ---

func TestTFLAllVariantsAgree(t *testing.T) {
	f := newFixture(t, 10)
	want := ReferenceTFL(f.g, DefaultSelectRatio)
	for name, opt := range optLevels {
		res, _, err := NewTFL(DefaultSelectRatio).RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !listsEqual(res.([][]graph.VertexID), want) {
			t.Fatalf("%s: two-hop lists mismatch", name)
		}
	}
	res, _, err := NewTFL(DefaultSelectRatio).RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	if !listsEqual(res.([][]graph.VertexID), want) {
		t.Fatal("MR two-hop lists mismatch")
	}
}

// --- cross-cutting metric shapes ---

func TestOptimizationsReduceIO(t *testing.T) {
	// O3 (local propagation + combination) must beat O1 on network and
	// disk for every edge-oriented app (§6.3 Tables 2-3).
	f := newFixture(t, 11)
	for _, app := range []App{NewNR(1), NewRLG(), NewTFL(DefaultSelectRatio)} {
		_, m1, err := app.RunPropagation(f.runner(), f.pg, f.pl, propagation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, m3, err := app.RunPropagation(f.runner(), f.pg, f.pl, propagation.Options{LocalPropagation: true, LocalCombination: true})
		if err != nil {
			t.Fatal(err)
		}
		if m3.NetworkBytes > m1.NetworkBytes {
			t.Errorf("%s: O3 network %d > O1 %d", app.Name(), m3.NetworkBytes, m1.NetworkBytes)
		}
		if m3.DiskBytes >= m1.DiskBytes {
			t.Errorf("%s: O3 disk %d >= O1 %d", app.Name(), m3.DiskBytes, m1.DiskBytes)
		}
		if m3.ResponseSeconds >= m1.ResponseSeconds {
			t.Errorf("%s: O3 response %.3f >= O1 %.3f", app.Name(), m3.ResponseSeconds, m1.ResponseSeconds)
		}
	}
}

func TestPropagationBeatsMapReduceOnNetwork(t *testing.T) {
	// Figure 7's mechanism: propagation only ships cross-partition
	// values to owner machines; MapReduce hash-shuffles everything.
	f := newFixture(t, 12)
	for _, app := range []App{NewNR(3), NewRLG(), NewTFL(DefaultSelectRatio)} {
		_, mp, err := app.RunPropagation(f.runner(), f.pg, f.pl, propagation.Options{LocalPropagation: true, LocalCombination: true})
		if err != nil {
			t.Fatal(err)
		}
		_, mm, err := app.RunMapReduce(f.runner(), f.pg, f.pl)
		if err != nil {
			t.Fatal(err)
		}
		if mp.NetworkBytes >= mm.NetworkBytes {
			t.Errorf("%s: propagation network %d >= MR %d", app.Name(), mp.NetworkBytes, mm.NetworkBytes)
		}
		if mp.ResponseSeconds >= mm.ResponseSeconds {
			t.Errorf("%s: propagation response %.3f >= MR %.3f", app.Name(), mp.ResponseSeconds, mm.ResponseSeconds)
		}
	}
}

func TestVDDPropagationComparableToMapReduce(t *testing.T) {
	// §6.4: emulating MapReduce with virtual vertices, propagation's VDD
	// performs similarly to MapReduce (no large win either way).
	f := newFixture(t, 13)
	_, mp, err := NewVDD().RunPropagation(f.runner(), f.pg, f.pl, propagation.Options{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	_, mm, err := NewVDD().RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	ratio := mp.ResponseSeconds / mm.ResponseSeconds
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("VDD propagation/MR response ratio = %.2f, want within 3x", ratio)
	}
}

func TestAllRegistry(t *testing.T) {
	apps := All()
	if len(apps) != 6 {
		t.Fatalf("All() returned %d apps", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name()] = true
		if a.Iterations() < 1 {
			t.Errorf("%s: iterations = %d", a.Name(), a.Iterations())
		}
	}
	for _, want := range []string{"VDD", "RS", "NR", "RLG", "TC", "TFL"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
}

// TestByName: every name resolves, in any case, to the app of that name;
// iterations reach the iterative apps (defaulting to the paper's three) and
// not the fixpoint ones; an unknown name is an error listing the names.
func TestByName(t *testing.T) {
	for i, name := range Names() {
		for _, spelled := range []string{name, strings.ToLower(name)} {
			a, err := ByName(spelled, 0)
			if err != nil || a.Name() != name {
				t.Fatalf("ByName(%q) = %v, %v", spelled, a, err)
			}
		}
		if i < len(All()) && All()[i].Name() != name {
			t.Errorf("Names()[%d] = %s, but All()[%d] is %s", i, name, i, All()[i].Name())
		}
	}
	for name, want := range map[string][2]int{"NR": {3, 7}, "RS": {3, 7}, "VDD": {1, 1}, "CC": {0, 0}, "SSSP": {0, 0}} {
		for i, iterations := range []int{0, 7} {
			if a, _ := ByName(name, iterations); a.Iterations() != want[i] {
				t.Errorf("ByName(%s, %d).Iterations() = %d, want %d", name, iterations, a.Iterations(), want[i])
			}
		}
	}
	_, err := ByName("xyz", 1)
	if err == nil || !strings.Contains(err.Error(), `"xyz"`) || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("ByName(xyz) error = %v, want one listing %v", err, Names())
	}
}

func TestSelectedRatio(t *testing.T) {
	n := 100000
	c := 0
	for v := 0; v < n; v++ {
		if Selected(uint32(v), 10) {
			c++
		}
	}
	frac := float64(c) / float64(n)
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("selected fraction = %.3f, want ~0.10", frac)
	}
	if !Selected(5, 1) {
		t.Fatal("ratio 1 must select everything")
	}
}

// BenchmarkNRMap is nrMR.Map alone — the partial-rank table of Algorithm 2 —
// over every partition of the suite_65k deployment (16k vertices under
// -short), on one goroutine.
func BenchmarkNRMap(b *testing.B) {
	n := 65536
	if testing.Short() {
		n = 16384
	}
	g := graph.Social(graph.DefaultSocial(n, 42))
	pt, _ := partition.RecursiveBisect(g, 6, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		b.Fatal(err)
	}
	prog := newNRMR(g, 1)
	prog.ranks = make([]float64, n)
	for i := range prog.ranks {
		prog.ranks[i] = 1 / float64(n)
	}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pi := range pg.Parts {
			prog.Map(pi, g, func(graph.VertexID, float64) { pairs++ })
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}
