// Package propagation fixture: SL006 order-sensitive float accumulation.
// totalRank folds a map in iteration order — the low bits of the sum
// change run to run. perKey is the carve-out (one slot per range key,
// order-free). mergeRanks races a captured scalar across ForEach workers
// while its indexed writes follow the pool's index-disjoint discipline.
// totalAllowed's leftover //lint:allow comment suppresses nothing.
package propagation

func totalRank(ranks map[vertexID]float64) float64 {
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	return sum
}

// perKey updates a slot keyed by the range key: order-independent, clean.
func perKey(in map[vertexID]float64, out map[vertexID]float64) {
	for k, v := range in {
		out[k] += v
	}
}

type pool struct{}

func (pool) ForEach(n int, fn func(int)) {}

func mergeRanks(p pool, parts [][]float64, out []float64) float64 {
	var total float64
	p.ForEach(len(parts), func(i int) {
		for j, v := range parts[i] {
			out[j] += v
			total += v
		}
	})
	return total
}

func totalAllowed(ranks map[vertexID]float64) float64 {
	var sum float64
	for _, r := range ranks {
		sum += r //lint:allow SL006 fixture: diagnostic total, never compared bit-for-bit
	}
	return sum
}
