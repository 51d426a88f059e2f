// Package propagation fixture: SL006 under nested map ranges, where both
// ranges walk the same assignment. grandTotal's += sits in two map ranges
// and each claims it; the stream carries it once. spread's acc[j] += v is
// a keyed slot of the inner range, but the outer range still orders the
// fold into each slot: reported once, for the outer range.
package propagation

func grandTotal(blocks map[vertexID]map[vertexID]float64) float64 {
	var sum float64
	for _, row := range blocks {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

func spread(blocks map[vertexID]map[vertexID]float64, acc map[vertexID]float64) {
	for _, row := range blocks {
		for j, v := range row {
			acc[j] += v
		}
	}
}
