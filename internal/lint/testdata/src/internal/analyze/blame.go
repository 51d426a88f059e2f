// Package analyze fixture: the deterministic-tier pin for internal/analyze
// (flush's map-range emission is SL002, which only fires in the
// deterministic tier — if the package were ever demoted, that golden line
// disappears and the tier test fails).
package analyze

// SL004 (output vocabulary missing from docs/METRICS.md) is retired: tests
// in internal/trace, internal/analyze and internal/bench read the document
// instead, and the ID is never reused. So is SL000, the audit of the
// //lint:allow pragma, which the linter no longer reads: the comment below
// is left over from it, has no finding of its own and suppresses nothing.
// The vocabulary tests have nothing to silence them either.
//
//lint:allow SL004 fixture: a pragma the retired check left behind

func flush(counts map[string]int, emit func(string, int)) {
	for k, v := range counts {
		emit(k, v)
	}
}
