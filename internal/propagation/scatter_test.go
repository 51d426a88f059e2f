package propagation

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// rankScatter is rankLike with its Scatter twin: one value along every
// out-edge, a function of the source alone.
type rankScatter struct{ rankLike }

func (rankScatter) Scatter(src graph.VertexID, val float64) (float64, bool) {
	return val * (1 + float64(src%7)/13), true
}

// concatScatter is concatProgram with its Scatter twin: the list-valued
// program, whose one value is shared by every out-edge.
type concatScatter struct{ concatProgram }

func (concatScatter) Scatter(_ graph.VertexID, val []int64) ([]int64, bool) { return val, true }

// flipProgram is value-dependent: whether a vertex sends at all is a hash of
// its current value, so the set of vertices that send changes from one
// iteration to the next and every partition leaves its plan. It keeps
// driftProgram's TransferVertex, Combine (non-commutative) and Bytes.
type flipProgram struct{ driftProgram }

func (flipProgram) Scatter(src graph.VertexID, val int64) (int64, bool) {
	h := driftMix(val, src)
	return val + int64(h>>40), h%3 != 0
}
func (p flipProgram) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	if v, ok := p.Scatter(src, val); ok {
		emit(dst, v)
	}
}

// transferOnly hides a program's Scatter: it embeds only Program, and
// forwards TransferVertex when the program has one, so the executor takes
// the per-edge Transfer path for the same emissions.
type transferOnly[V any] struct{ Program[V] }

func (p transferOnly[V]) TransferVertex(v graph.VertexID, val V, emit Emit[V]) {
	if vt, ok := p.Program.(VertexTransferrer[V]); ok {
		vt.TransferVertex(v, val, emit)
	}
}

// scatterRows checks one program, built by mk for a virtual space: every
// cell run with Scatter visible, at 1, 2 and 8 workers, must hash what the
// same cell hashes with it hidden at 1 worker — states and jobs through
// PlanIterations, states, metrics and the event stream through
// RunIterationsTree — at O1-O4 with no virtual space and with 7 virtual
// vertices.
func scatterRows[V any](t *testing.T, name string, d *goldenDeployment, put func(*digest, V), mk func(virtual int) Program[V]) bool {
	t.Helper()
	ok := true
	for _, virtual := range []int{0, 7} {
		visible := goldenProgram[V]{prog: mk(virtual), virtual: virtual, put: put}
		hidden := goldenProgram[V]{prog: transferOnly[V]{mk(virtual)}, virtual: virtual, put: put}
		for level := range goldenLevels {
			for _, driver := range []string{"PlanIterations", "RunIterationsTree"} {
				want := goldenRow(t, d, hidden, level, driver, 1)
				for _, workers := range []int{1, 2, 8} {
					if got := goldenRow(t, d, visible, level, driver, workers); got != want {
						t.Errorf("%s %s %s virtual %d: %d workers with Scatter hash %s, Transfer alone %s",
							name, goldenLevels[level].name, driver, virtual, workers, got, want)
						ok = false
					}
				}
			}
		}
	}
	return ok
}

// TestQuickScatterMatchesTransfer: a program's Scatter is a fast path, never
// a second semantics. For a scalar program, a list-valued one and one whose
// senders change every iteration (so plans are left and rebuilt), a run that
// may call Scatter is bit-identical to one that sees only Transfer, on
// random deployments.
func TestQuickScatterMatchesTransfer(t *testing.T) {
	f := func(seed uint16) bool {
		d := newGoldenDeployment(t, int64(seed))
		n := d.pg.G.NumVertices()
		return scatterRows(t, "scalar", d, putFloat, func(int) Program[float64] { return rankScatter{} }) &&
			scatterRows(t, "list", d, putList, func(int) Program[[]int64] { return concatScatter{} }) &&
			scatterRows(t, "flip", d, putInt, func(virtual int) Program[int64] {
				return flipProgram{driftProgram{n: n, virtual: virtual}}
			})
	}
	count := 2
	if testing.Short() {
		count = 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}
