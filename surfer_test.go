package surfer

import (
	"math"
	"testing"
)

// pagerank is a minimal public-API propagation program used by the tests.
type pagerank struct {
	g *Graph
	n float64
}

func (p *pagerank) Init(VertexID) float64 { return 1 / p.n }
func (p *pagerank) Transfer(src VertexID, rank float64, dst VertexID, emit Emit[float64]) {
	emit(dst, rank*0.85/float64(p.g.OutDegree(src)))
}
func (p *pagerank) Combine(_ VertexID, _ float64, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + 0.15/p.n
}
func (p *pagerank) Bytes(float64) int64 { return 8 }
func (p *pagerank) Associative() bool   { return true }
func (p *pagerank) Merge(_ VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum
}

func buildTestSystem(t *testing.T) *System {
	t.Helper()
	g := Social(DefaultSocial(2048, 7))
	topo := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1})
	sys, err := Build(Config{Graph: g, Topology: topo, Levels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := buildTestSystem(t)
	prog := &pagerank{g: sys.Graph, n: float64(sys.Graph.NumVertices())}
	st, m, err := RunPropagation(sys, sys.NewRunner(), prog, 3,
		PropagationOptions{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range st.Values {
		sum += r
	}
	if sum < 0.5 || sum > 1.0+1e-9 {
		t.Fatalf("rank sum = %g", sum)
	}
	if m.ResponseSeconds <= 0 || m.NetworkBytes <= 0 {
		t.Fatalf("implausible metrics %+v", m)
	}
}

func TestPublicAPICascaded(t *testing.T) {
	sys := buildTestSystem(t)
	prog := &pagerank{g: sys.Graph, n: float64(sys.Graph.NumVertices())}
	plain, _, err := RunPropagation(sys, sys.NewRunner(), prog, 4, PropagationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	casc, _, err := RunCascaded(sys, sys.NewRunner(), prog, 4, PropagationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Values {
		if math.Abs(plain.Values[v]-casc.Values[v]) > 1e-15 {
			t.Fatalf("cascaded diverged at %d", v)
		}
	}
	ci := AnalyzeCascade(sys)
	if len(ci.Depth) != sys.Graph.NumVertices() {
		t.Fatal("cascade info wrong size")
	}
}

// degreeMR counts out-degrees via the public MapReduce surface.
type degreeMR struct{}

func (degreeMR) Map(pi *PartInfo, g *Graph, emit func(int, int64)) {
	for _, v := range pi.Vertices {
		emit(g.OutDegree(v), 1)
	}
}
func (degreeMR) Reduce(_ int, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}
func (degreeMR) PairBytes(int, int64) int64 { return 12 }
func (degreeMR) ResultBytes(int64) int64    { return 12 }

func TestPublicAPIMapReduce(t *testing.T) {
	sys := buildTestSystem(t)
	res, m, err := RunMapReduce[int, int64, int64](sys, sys.NewRunner(), degreeMR{}, MROptions{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res {
		total += c
	}
	if total != int64(sys.Graph.NumVertices()) {
		t.Fatalf("histogram total = %d, want %d", total, sys.Graph.NumVertices())
	}
	if m.NetworkBytes == 0 {
		t.Fatal("MapReduce shuffle produced no network traffic")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	if g := RMAT(DefaultRMAT(8, 4, 1)); g.NumVertices() != 256 {
		t.Fatal("RMAT size")
	}
	if g := SmallWorld(DefaultSmallWorld(1000, 1)); g.NumVertices() == 0 {
		t.Fatal("SmallWorld empty")
	}
	if g := Social(DefaultSocial(1000, 1)); g.NumEdges() == 0 {
		t.Fatal("Social empty")
	}
	g := FromEdges(3, [][2]VertexID{{0, 1}, {1, 2}})
	if !g.HasEdge(0, 1) {
		t.Fatal("FromEdges")
	}
}

// TestPublicAPIStrategies: the two partitioning strategies Table 1 compares
// are two walks of one bisection, priced through the public API. Both cost
// time; on a tree topology the bandwidth-aware one costs less.
func TestPublicAPIStrategies(t *testing.T) {
	g := Social(DefaultSocial(1024, 3))
	topo := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1})
	sys, err := Build(Config{Graph: g, Topology: topo, Levels: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.PG.Part.P != 8 {
		t.Fatalf("P = %d", sys.PG.Part.P)
	}
	aware, baseline := DefaultPartitionCostModel().PartitioningTime(g, sys.Sketch, topo, 4)
	if aware <= 0 || baseline <= aware {
		t.Fatalf("partitioning times: bandwidth-aware %g, baseline %g", aware, baseline)
	}
}

func TestPublicAPIFailureInjection(t *testing.T) {
	g := Social(DefaultSocial(1024, 9))
	topo := NewT1(4)
	sys, err := Build(Config{
		Graph: g, Topology: topo, Levels: 2, Seed: 9,
		Faults: &FaultSchedule{Kills: []Kill{{Machine: 0, At: 0.0001}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := &pagerank{g: g, n: float64(g.NumVertices())}
	st, _, err := RunPropagation(sys, sys.NewRunner(), prog, 2,
		PropagationOptions{LocalPropagation: true})
	if err != nil {
		t.Fatal(err)
	}
	// Results must be unaffected by the failure.
	ref, _, err := RunPropagation(sys, NewT1ref(sys), prog, 2, PropagationOptions{LocalPropagation: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range st.Values {
		if math.Abs(st.Values[v]-ref.Values[v]) > 1e-15 {
			t.Fatalf("failure changed results at %d", v)
		}
	}
}

// NewT1ref builds a failure-free runner over the same system for
// result-equivalence checks.
func NewT1ref(sys *System) *Runner {
	clean, err := Build(Config{Graph: sys.Graph, Topology: sys.Topology, Levels: 2, Seed: 9})
	if err != nil {
		panic(err)
	}
	return clean.NewRunner()
}
