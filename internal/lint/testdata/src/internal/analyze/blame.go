// Package analyze fixture: SL004 blame-category doc-sync plus the
// deterministic-tier pin for internal/analyze (flush's map-range emission
// is SL002, which only fires in the deterministic tier — if the package
// were ever demoted, that golden line disappears and the tier test fails).
package analyze

const (
	// CatCPU is documented (backticked) in the fixture METRICS.md.
	CatCPU = "cpu-bound"
	// CatSpill is not documented: SL004.
	CatSpill = "spill-bound"
	// CatQueue is undocumented but suppressed: the SL004 pragma case.
	CatQueue = "queue-bound" //lint:allow SL004 fixture: taxonomy section rewrite pending, tracked in docs backlog
)

func flush(counts map[string]int, emit func(string, int)) {
	for k, v := range counts {
		emit(k, v)
	}
}
