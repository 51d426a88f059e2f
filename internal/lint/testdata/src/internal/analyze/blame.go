// Package analyze fixture: the deterministic-tier pin for internal/analyze
// (flush's map-range emission is SL002, which only fires in the
// deterministic tier — if the package were ever demoted, that golden line
// disappears and the tier test fails).
package analyze

// SL004 (output vocabulary missing from docs/METRICS.md) is retired: tests
// in internal/trace, internal/analyze and internal/bench read the document
// instead, and the ID is never reused. A pragma naming it suppresses
// nothing and is an SL000 finding, like one naming SL005, SL007 or SL008.
// The vocabulary tests have no pragma to silence them: a missing word
// fails until it is documented.
//
//lint:allow SL004 fixture: a pragma the retired check left behind

func flush(counts map[string]int, emit func(string, int)) {
	for k, v := range counts {
		emit(k, v)
	}
}
